"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Sizes stay at desk scale (K <= 256 modes, n <= 2^12 points).
"""

import hashlib

import numpy as np
import pytest
from scipy import integrate

import roughbound as rb
from roughbound import studies
from roughbound.cli import run as cli_run
from roughbound.rough_driver import driver_chen_defect_max

from conftest import (additive_bypass_error, interchange_error, neumann_profile,
                      zero_noise_error)


def _report(num, name, ok, value, threshold):
    line = (f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"value={value:.6e} threshold={threshold:.6e}")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scale40():
    return rb.build_scale(rb.ScaleConfig(K=16, gamma=0.40, delta=0.05))


@pytest.fixture(scope="module")
def squashed40(scale40):
    w0, w1 = rb.default_trace_weights(scale40, 0.8)
    return rb.SquashedTrace(w0, w1, 1.0, -scale40.eta, 2.0, bias=(0.3, -0.2))


@pytest.fixture(scope="module")
def y0_40(scale40):
    return rb.neumann_map(rb.BoundaryVector(1.0, 0.5), scale40).coeffs


def test_criterion_01_chen_relation():
    worst = float(np.max([
        driver_chen_defect_max(rb.sample_fbm(H, 64, 1.0, seed=seed))
        for H in (0.35, 0.45, 0.5) for seed in range(100)]))
    _report(1, "chen_relation_geometric", worst <= 1e-10, worst, 1e-10)


def test_criterion_02_interpolation_inequality():
    sc = rb.build_scale(rb.ScaleConfig(K=64, gamma=0.40))
    rng = np.random.default_rng(2024)
    ratios = []
    while len(ratios) < 1000:
        v = rng.standard_normal(64)
        a1, a2, a3 = np.sort(rng.uniform(-2.0, 2.0, size=3))
        if a3 - a1 < 1e-8:
            continue
        lhs = sc.norm(v, a2) ** (a3 - a1)
        rhs = sc.norm(v, a1) ** (a3 - a2) * sc.norm(v, a3) ** (a2 - a1)
        ratios.append(lhs / rhs)
    worst = float(np.max(ratios))
    _report(2, "interpolation_inequality", worst <= 1 + 1e-12, worst, 1 + 1e-12)


def test_criterion_03_semigroup_bounds():
    sc = rb.build_scale(rb.ScaleConfig(K=64, gamma=0.40))
    t_grid = np.logspace(-4, 0, 200)
    ratios = []
    for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = rb.smoothing_constants(sc, sigma, t_grid)
        ratios += [rep.measured_smoothing / rep.smoothing_bound,
                   rep.measured_continuity / rep.continuity_bound]
    worst = float(np.max(ratios))
    _report(3, "semigroup_bounds", worst <= 1 + 1e-12, worst, 1 + 1e-12)


def test_criterion_04_neumann_map():
    sc = rb.build_scale(rb.ScaleConfig(K=256, gamma=0.40))
    g = rb.BoundaryVector(0.0, 1.0)
    got = rb.neumann_map(g, sc).coeffs
    # oracle: the profile against every orthonormal cosine mode (as
    # Scale.basis evaluates them) by one composite Gauss-Legendre rule,
    # 128 panels x 24 nodes on [0, 1]
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = 0.5 / 128                                  # panel half-width
    x = (((np.arange(128) + 0.5) / 128)[:, None] + half * nodes).ravel()
    modes = np.sqrt(2.0) * np.cos(np.pi * np.outer(x, np.arange(256)))
    modes[:, 0] = 1.0
    oracle = (np.tile(half * weights, 128) * neumann_profile(g, sc, x)) @ modes
    worst = float(np.max(np.abs(got - oracle)))
    ok_quad = worst <= 1e-8

    # cross-check of the rule itself: adaptive quadrature on sampled modes
    rule_gap = 0.0
    for k in (0, 1, 2, 31, 64, 127, 128, 200, 255):
        def f(x, k=k):
            mode = 1.0 if k == 0 else np.sqrt(2.0) * np.cos(k * np.pi * x)
            return neumann_profile(g, sc, np.array([x]))[0] * mode
        ref, _ = integrate.quad(f, 0.0, 1.0, limit=400, epsabs=1e-12,
                                epsrel=1e-12)
        rule_gap = max(rule_gap, abs(oracle[k] - ref))

    def ratio(alpha):
        vals = []
        for K in (64, 256):
            s = rb.build_scale(rb.ScaleConfig(K=K, gamma=0.40))
            vals.append(float(rb.neumann_map(g, s).norm(alpha)))
        return vals[1] / vals[0]

    r70, r80 = ratio(0.70), ratio(0.80)
    _report(4, "neumann_oracle_matches_quad", rule_gap <= 1e-12, rule_gap, 1e-12)
    _report(4, "neumann_quadrature_oracle", ok_quad, worst, 1e-8)
    _report(4, "neumann_norm_ratio_a070", r70 <= 1.05, r70, 1.05)
    _report(4, "neumann_norm_ratio_a080", r80 >= 1.15, r80, 1.15)


def test_criterion_05_sewing_rate(scale40, squashed40, y0_40):
    st = studies.sewing_study(scale40, squashed40, y0_40, H=0.45, n=2048,
                              T=1.0, gamma=0.40, seeds=range(20),
                              levels=range(4, 11), beta=0.0)
    _report(5, "sewing_rate", st.slope >= st.target, st.slope, st.target)


def test_criterion_06_remainder_stability(scale40, squashed40, y0_40):
    st = studies.remainder_refinement_study(scale40, squashed40, y0_40,
                                            H=0.45, n=512, T=1.0, gamma=0.40,
                                            seed=5)
    worst = float(np.max([np.max(st.ratios), 1.0 / np.min(st.ratios)]))
    _report(6, "remainder_ratio_refinement", worst <= 2.0, worst, 2.0)


def test_criterion_07_interchange(scale40, squashed40, y0_40):
    w0, w1 = rb.default_trace_weights(scale40, 0.8)
    maps = (squashed40,
            rb.LinearTrace(w0, w1, -scale40.eta, 2.0),
            rb.ConstantBoundary(0.7, -0.3, -scale40.eta, 2.0))
    errors = []
    for seed in range(10):
        D = rb.sample_fbm(0.45, 512, 1.0, seed=seed, gamma=0.40)
        errors += [interchange_error(scale40, F, y0_40, D) for F in maps]
    worst = float(np.max(errors))
    _report(7, "interchange_identity", worst <= 1e-10, worst, 1e-10)


def test_criterion_08_zero_noise_solver():
    sc = rb.build_scale(rb.ScaleConfig(K=32, gamma=0.40, delta=0.05))
    y0 = rb.neumann_map(rb.BoundaryVector(1.0, 1.0), sc).coeffs
    t = np.linspace(0.0, 1.0, 4097)
    D = rb.lift_geometric(t, np.zeros(4097), 0.40)
    spec = rb.ProblemSpec(sc, D, rb.ConstantBoundary(0.0, 0.0, -sc.eta, 2.0),
                          y0, drift=rb.LinearDrift(-1.0, 0.85))
    err = zero_noise_error(spec, -1.0)
    _report(8, "zero_noise_exact_modes", err <= 1e-8, err, 1e-8)


def test_criterion_09_additive_bypass(scale40, y0_40):
    D = rb.sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    F = rb.ConstantBoundary(0.7, -0.3, -scale40.eta, 2.0)
    spec = rb.ProblemSpec(scale40, D, F, y0_40)
    gap = additive_bypass_error(spec)
    _report(9, "additive_noise_bypass", gap <= 1e-9, gap, 1e-9)


def test_criterion_10_young_dirichlet():
    sc = rb.build_scale(rb.ScaleConfig(K=16, bc="dirichlet", gamma=0.77,
                                       delta=0.005))
    w0, w1 = rb.default_trace_weights(sc, 0.8)
    F = rb.SquashedTrace(w0, w1, 1.0, -sc.eta, 2.5, bias=(0.3, -0.2))
    y0 = rb.dirichlet_map(rb.BoundaryVector(0.5, -0.5), sc).coeffs

    # H = 0.8 solve completes on the full horizon
    D = rb.sample_fbm(0.8, 2048, 1.0, seed=1, gamma=0.77)
    res = rb.solve_young_dirichlet(rb.ProblemSpec(sc, D, F, y0))
    done = abs(res.path.times[-1] - 1.0) < 1e-12
    _report(10, "young_solve_completes", done, res.path.times[-1], 1.0)

    st = studies.sewing_study(sc, F, y0, H=0.8, n=2048, T=1.0, gamma=0.77,
                              seeds=range(10), levels=range(4, 10), beta=0.0)
    _report(10, "young_sewing_rate", st.slope >= st.target, st.slope, st.target)

    # H = 0.6 rejected: gamma = 0.55 is below the Dirichlet/Young floor 3/4
    try:
        rb.build_scale(rb.ScaleConfig(K=16, bc="dirichlet", gamma=0.6 - 0.05,
                                      delta=0.005))
        rejected = False
    except rb.DirichletRegularityError:
        rejected = True
    _report(10, "young_h06_rejected", rejected, float(rejected), 1.0)


def test_criterion_11_cocycle(scale40, y0_40):
    sc = rb.build_scale(rb.ScaleConfig(K=16, gamma=0.45, delta=0.05))
    w0, w1 = rb.default_trace_weights(sc, 0.8)
    F = rb.SquashedTrace(w0, w1, 1.0, -sc.eta, 2.0, bias=(0.3, -0.2))
    y0 = rb.neumann_map(rb.BoundaryVector(1.0, 0.5), sc).coeffs
    st = studies.cocycle_study(sc, F, y0, H=0.5, master_n=4096, T=0.5,
                               gamma=0.45, seeds=range(10),
                               resolutions=(1024, 2048), t=0.25, tau=0.25)
    decreasing = st.mean_defects[0] > st.mean_defects[-1]
    _report(11, "cocycle_defect_decreases", decreasing and st.final_ratio >= 1.5,
            st.final_ratio, 1.5)

    t = np.linspace(0.0, 0.5, 2049)
    Dz = rb.lift_geometric(t, np.zeros(2049), 0.40)
    spec = rb.ProblemSpec(scale40, Dz,
                          rb.ConstantBoundary(0.0, 0.0, -scale40.eta, 2.0),
                          y0_40)
    dz = rb.cocycle_defect(spec, 0.25, 0.25, 512)
    _report(11, "cocycle_zero_noise", dz <= 1e-8, dz, 1e-8)


def test_criterion_12_stability(scale40, squashed40, y0_40):
    driver_st, initial_st = studies.stability_study(
        scale40, squashed40, y0_40, H=0.45, n=1024, T=1.0, gamma=0.40,
        seed=0, gamma_prime=0.35, lambdas=(0.95, 0.99, 1.01, 1.05),
        eps0=(-0.05, -0.01, 0.01, 0.05))
    _report(12, "stability_driver_linear_response", driver_st.max_rel_dev <= 0.20,
            driver_st.max_rel_dev, 0.20)
    _report(12, "stability_initial_linear_response",
            initial_st.max_rel_dev <= 0.20, initial_st.max_rel_dev, 0.20)


def test_criterion_13_determinism(tmp_path):
    def digests():
        out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        cfg = tmp_path / "det.cfg"
        cfg.write_text("study = sample\nH = 0.45\nn = 512\nseed = 9\n")
        assert cli_run(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        cfg2 = tmp_path / "det2.cfg"
        cfg2.write_text("study = solve\nH = 0.45\nn = 256\nK = 8\nseed = 3\n"
                        "out_stride = 16\n")
        assert cli_run(["solve", "--config", str(cfg2), "--out", str(out)]) == 0
        cfg3 = tmp_path / "det3.cfg"
        cfg3.write_text("study = convergence\nH = 0.45\nn = 512\nK = 8\n"
                        "seeds = 3\nlevels = 3..6\n")
        assert cli_run(["convergence", "--config", str(cfg3), "--out", str(out)]) == 0
        return [hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("driver.csv", "solution.csv", "convergence.csv")]

    first, second = digests(), digests()
    same = first == second
    _report(13, "csv_byte_determinism", same, float(same), 1.0)
