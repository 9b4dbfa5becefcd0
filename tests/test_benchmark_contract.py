"""Every layer that perfbench's tracer wraps is still called under its name.

`perfbench/tracer.py` wraps public functions under the module attribute each
caller looks them up by (``solver.young_convolve``, ``studies.sample_fbm``,
...).  A refactor that renames one, or imports it another way, leaves the
benchmark reporting that layer as missing or as zero.  This runs a tiny
version of each workload's calls under the tracer.
"""

import importlib.util
import os

import roughbound as rb
from roughbound import cli, studies

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_calls(neumann_scale, dirichlet_scale, tmp_path):
    w0, w1 = rb.default_trace_weights(neumann_scale, 0.8)
    F = rb.SquashedTrace(w0, w1, 1.0, -neumann_scale.eta, 2.0, bias=(0.3, -0.2))
    y0 = rb.neumann_map(rb.BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    # mc-solve: a rough solve with a linear drift
    D = rb.sample_fbm(0.45, 256, 1.0, seed=0, gamma=0.40)
    rb.solve_global(rb.ProblemSpec(neumann_scale, D, F, y0,
                                   drift=rb.LinearDrift(-0.5, 0.85)))
    # certify: the stability and remainder studies
    kw = dict(H=0.45, T=1.0, gamma=0.40, seed=0)
    studies.stability_study(neumann_scale, F, y0, n=128, gamma_prime=0.35,
                            lambdas=(0.99, 1.01), eps0=(-0.01, 0.01), **kw)
    studies.remainder_refinement_study(neumann_scale, F, y0, n=64, **kw)
    # young-windows: a Dirichlet/Young solve
    w0, w1 = rb.default_trace_weights(dirichlet_scale, 0.8)
    G = rb.SquashedTrace(w0, w1, 1.0, -dirichlet_scale.eta, 2.5, bias=(0.3, -0.2))
    z0 = rb.dirichlet_map(rb.BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    E = rb.sample_fbm(0.8, 256, 1.0, seed=0, gamma=0.77)
    rb.solve_young_dirichlet(rb.ProblemSpec(dirichlet_scale, E, G, z0))
    # cli-cold: a CLI solve that writes its artifacts
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("study = solve\nn = 256\nK = 8\n")
    out = tmp_path / "out"
    out.mkdir()
    assert cli.run(["solve", "--config", str(cfg), "--out", str(out)]) == 0


def test_every_traced_layer_is_recorded(neumann_scale, dirichlet_scale, tmp_path):
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        _workload_calls(neumann_scale, dirichlet_scale, tmp_path)
    finally:
        t.uninstall()
    assert not t.missing
    recorded = {span[0] for span in t.spans}
    assert set(tracer.TARGETS) | {"write"} <= recorded
