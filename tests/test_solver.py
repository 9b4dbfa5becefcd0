from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from roughbound import (AprioriBoundViolation, BoundaryVector, ConfigError,
                        ConstantBoundary, ContractionFailure, ControlledPath,
                        DirichletRegularityError, GridMismatch, LinearDrift,
                        LinearTrace,
                        PicardParams, ProblemSpec, SmoothBoundedDrift,
                        SquashedTrace, cocycle_defect,
                        crp_norm, default_trace_weights, dirichlet_map,
                        lift_geometric, sample_fbm, shift, solve_global,
                        solve_local, solve_young_dirichlet,
                        stability_distance, young_convolve)
from roughbound.controlled_path import (constant_path, crp_distance,
                                        diffusion_rows, lift_extrapolate)
from roughbound.rough_convolution import mode_filter, rough_convolve
from roughbound import rough_convolution, solver
from roughbound.solver import _rough_window, drift_convolve

from conftest import (additive_direct, brute_force_stability_distance,
                      diffusion_derivative_rows)


def _squashed(scale, gain=0.8, amp=1.0, delta2=2.0):
    w0, w1 = default_trace_weights(scale, gain)
    return SquashedTrace(w0, w1, amp, scale.eps - 1.0, delta2, bias=(0.3, -0.2))


def _zero_diffusion(scale, delta2=2.0):
    return ConstantBoundary(0.0, 0.0, scale.eps - 1.0, delta2)


def _zero_driver(n, T, gamma=0.40):
    t = np.linspace(0.0, T, n + 1)
    return lift_geometric(t, np.zeros(n + 1), gamma)


@pytest.mark.parametrize("kw", [dict(tol=float("nan")), dict(tol=-1.0),
                                dict(tol=0.0), dict(tol=float("inf")),
                                dict(max_iter=-1), dict(max_halvings=-1),
                                dict(max_iter=2.5), dict(max_halvings=np.nan)],
                         ids=["nan", "negative", "zero", "inf", "max_iter",
                              "max_halvings", "max_iter_fraction",
                              "max_halvings_nan"])
def test_picard_params_reject_unusable_settings(kw):
    with pytest.raises(ConfigError):
        PicardParams(**kw)
    assert PicardParams(max_iter=0, max_halvings=0).max_iter == 0


# -- drift convolution ---------------------------------------------------------

def test_drift_zero(neumann_scale, driver_small):
    p = constant_path(driver_small.times, np.ones(16), np.zeros(16), -0.3,
                      0.40, neumann_scale)
    out = drift_convolve(p.space, p.times, LinearDrift(0.0, 0.85).value(p.y))
    assert np.all(out == 0.0)


def test_drift_constant_mode_exact(neumann_scale):
    t = np.linspace(0, 1, 257)
    rows = np.tile(np.eye(16)[1], (257, 1))
    out = drift_convolve(neumann_scale, t, rows)
    mu1 = neumann_scale.mu[1]
    assert out[-1, 1] == pytest.approx((1 - np.exp(-mu1)) / mu1, abs=1e-14)


def test_drift_second_order_refinement(neumann_scale):
    ref = drift_convolve(neumann_scale, np.linspace(0, 1, 4097),
                         np.outer(np.sin(3 * np.linspace(0, 1, 4097)), np.ones(16)))
    errs = []
    for n in (256, 512, 1024):
        t = np.linspace(0, 1, n + 1)
        out = drift_convolve(neumann_scale, t, np.outer(np.sin(3 * t), np.ones(16)))
        errs.append(np.max(np.abs(out[-1] - ref[-1])))
    assert 3.4 <= errs[0] / errs[1] <= 4.8
    assert 3.4 <= errs[1] / errs[2] <= 4.8


def _trapezoid_input(scale, h, f_rows):
    """e^{-mu h} and the closed-form w_l f_i + w_r f_{i+1} of every step."""
    x = scale.mu * h
    damp = scale.semigroup(h)
    w_right = h * (x + np.expm1(-x)) / x ** 2
    w_left = h * (-np.expm1(-x) - x * damp) / x ** 2
    return damp, w_left * f_rows[:-1] + w_right * f_rows[1:]


def test_drift_convolve_scans_a_germ_with_its_input(neumann_scale):
    t = np.linspace(0.0, 1.0, 513)
    f = np.outer(np.sin(3 * t), np.linspace(1.0, -1.0, 16))
    damp, xi = _trapezoid_input(neumann_scale, t[1], f)
    plain = drift_convolve(neumann_scale, t, f)
    assert np.array_equal(plain, mode_filter(damp, xi))
    germ = np.random.default_rng(0).standard_normal((512, 16))
    fused = drift_convolve(neumann_scale, t, f, germ=germ.copy())
    ref = mode_filter(damp, germ) + plain
    assert np.max(np.abs(fused - ref)) <= 1e-14 * np.max(np.abs(ref))
    for rows, g in ((f, germ[1:]), (f[1:], None), (f[:, :8], None)):
        with pytest.raises(GridMismatch):
            drift_convolve(neumann_scale, t, rows, germ=g)


@pytest.mark.parametrize("drift", [None, LinearDrift(-0.5, 0.85),
                                   SmoothBoundedDrift(1.0, 0.85)],
                         ids=["no_drift", "linear", "smooth_bounded"])
def test_the_fused_drift_step_is_the_unfused_picard_map(neumann_scale, lifted_y0,
                                                        drift):
    # every accepted window is a fixed point of S y(a) + int S G(u) dX
    # (+ int S f(u) dr), each convolution formed on its own
    F = _squashed(neumann_scale, gain=5.0, amp=4.0)
    D = sample_fbm(0.45, 512, 1.0, seed=1, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, F, lifted_y0, drift=drift)
    res = solve_global(spec)
    p = res.path
    ends = [0] + [D.index_of(t) for t in res.window_ends]
    for a, b in zip(ends[:-1], ends[1:]):
        Dw = shift(D, D.times[a]).restricted(1, stop=b - a)
        u = ControlledPath(Dw.times, p.y[a:b + 1], p.y_prime[a:b + 1], p.alpha,
                           p.gamma, p.space)
        image = _unfused_step(spec, Dw, u).y
        resid = np.max(neumann_scale.norm(image - u.y, spec.solution_alpha))
        assert resid <= spec.picard.tol, (a, resid)


def _unfused_step(spec, D, u):
    """Phi(u) through the lifted path: S y0 + rough_convolve(lift_extrapolate)
    (+ drift_convolve), each formed on its own, with y' = G(u)."""
    scale, F = spec.scale, spec.diffusion
    rows = (scale.semigroup(D.times) * u.y[0]
            + rough_convolve(lift_extrapolate(F, u, scale), D).y)
    if spec.drift is not None:
        rows = rows + drift_convolve(scale, D.times, spec.drift.value(u.y))
    return ControlledPath(D.times, rows, diffusion_rows(F, scale, u.y), u.alpha,
                          u.gamma, scale)


@pytest.mark.parametrize("drift", [None, LinearDrift(-0.5, 0.85),
                                   SmoothBoundedDrift(1.0, 0.85)],
                         ids=["no_drift", "linear", "smooth_bounded"])
def test_the_two_column_step_is_the_lifted_picard_map(neumann_scale, lifted_y0,
                                                      drift):
    # three iterates from the anchor: the germ formed in the two boundary
    # columns and lifted once is the convolution of the lifted path, and the
    # derivative component is G(u) bitwise
    F = _squashed(neumann_scale, gain=5.0, amp=4.0)
    D = sample_fbm(0.45, 512, 1.0, seed=1, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, F, lifted_y0, drift=drift)
    step, _, u = _rough_window(spec, D, lifted_y0)
    for _ in range(3):
        out, ref = step(u), _unfused_step(spec, D, u)
        assert np.max(np.abs(out.y - ref.y)) <= 1e-14 * np.max(np.abs(ref.y))
        assert np.array_equal(out.y_prime, ref.y_prime)
        u = out


# -- problem validation ----------------------------------------------------------

def test_spec_validation(neumann_scale, driver_small, lifted_y0):
    F = _squashed(neumann_scale)
    with pytest.raises(ConfigError):   # delta1 below 2 gamma
        ProblemSpec(neumann_scale, driver_small, F, lifted_y0,
                    drift=LinearDrift(-1.0, 0.5))
    for delta2 in (1.5, np.nan, np.inf):   # at/below eta + 3/2, non-finite
        with pytest.raises(ConfigError):
            ProblemSpec(neumann_scale, driver_small,
                        _squashed(neumann_scale, delta2=delta2), lifted_y0)
    with pytest.raises(ConfigError):   # gamma mismatch
        ProblemSpec(neumann_scale, sample_fbm(0.5, 64, 1.0, seed=1, gamma=0.45),
                    F, lifted_y0)
    with pytest.raises(ConfigError):   # wrong y0 length
        ProblemSpec(neumann_scale, driver_small, F, np.zeros(5))
    with pytest.raises(ConfigError):   # a horizon where the Picard knobs go
        ProblemSpec(neumann_scale, driver_small, F, lifted_y0, None, 0.5)
    with pytest.raises(ConfigError):   # diffusion declared off the solution index
        ProblemSpec(neumann_scale, driver_small,
                    ConstantBoundary(0.0, 0.0, 0.0, 2.0), lifted_y0)


class _FirstModes(LinearDrift):
    """A drift whose value keeps only the first three modes."""

    def value(self, y_rows):
        return super().value(y_rows)[:, :3]


def test_maps_of_the_wrong_shape_are_config_errors(neumann_scale, driver_small,
                                                   lifted_y0):
    # the trace weights must have a row per mode and the drift a column per
    # mode; both are named at the spec, not at a numpy matmul or the scan
    w8 = np.ones(8)
    for F in (LinearTrace(w8, w8, -neumann_scale.eta, 2.0),
              SquashedTrace(w8, w8, 1.0, -neumann_scale.eta, 2.0)):
        with pytest.raises(ConfigError, match=r"\(1, 16\).*\(1, 2\)"):
            ProblemSpec(neumann_scale, driver_small, F, lifted_y0)
    with pytest.raises(ConfigError, match=r"\(1, 3\).*\(1, 16\)"):
        ProblemSpec(neumann_scale, driver_small, _squashed(neumann_scale),
                    lifted_y0, drift=_FirstModes(-0.5, 0.85))


def test_the_young_solver_needs_a_dirichlet_scale(neumann_scale, driver_small,
                                                  lifted_y0):
    spec = ProblemSpec(neumann_scale, driver_small, _squashed(neumann_scale),
                       lifted_y0)
    with pytest.raises(ConfigError):
        solve_young_dirichlet(spec)


def test_a_drift_at_gamma_one_half_names_the_gamma_bound():
    # [2 gamma, 1) is empty at gamma = 1/2, the top of the rough range
    import roughbound as rb
    scale = rb.build_scale(rb.ScaleConfig(K=16, gamma=0.5))
    with pytest.raises(ConfigError, match="a drift needs gamma < 1/2"):
        ProblemSpec(scale, _zero_driver(64, 1.0, gamma=0.5),
                    _zero_diffusion(scale), np.zeros(16),
                    drift=LinearDrift(-1.0, 0.99))


# -- local/global solves ----------------------------------------------------------

def test_pure_semigroup_flow(neumann_scale, lifted_y0):
    D = _zero_driver(512, 1.0)
    spec = ProblemSpec(neumann_scale, D, _zero_diffusion(neumann_scale), lifted_y0)
    res = solve_local(spec)
    assert res.iterations == 1
    exact = neumann_scale.semigroup(D.times) * lifted_y0
    assert np.max(np.abs(res.path.y - exact)) <= 1e-14


def test_zero_noise_linear_drift_exact(neumann_scale, lifted_y0):
    D = _zero_driver(1024, 1.0)
    spec = ProblemSpec(neumann_scale, D, _zero_diffusion(neumann_scale),
                       lifted_y0, drift=LinearDrift(-1.0, 0.85))
    res = solve_global(spec)
    exact = np.exp(-np.outer(D.times, neumann_scale.mu + 1.0)) * lifted_y0
    # quadrature-limited at this resolution; acceptance #8 runs n = 4096
    assert np.max(np.abs(res.path.y - exact)) <= 2e-7


def test_additive_noise_bypass(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    F = ConstantBoundary(0.7, -0.3, -neumann_scale.eta, 2.0)
    spec = ProblemSpec(neumann_scale, D, F, lifted_y0)
    picard = solve_global(spec)
    direct = additive_direct(spec)
    gap = np.max(neumann_scale.norm(picard.path.y - direct.y, -neumann_scale.eta))
    assert gap <= spec.picard.tol
    assert np.allclose(picard.path.y_prime, direct.y_prime)


def test_gubinelli_identity_and_fixed_point_residual(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    res = solve_global(spec)
    u = res.path
    # y' = G(y) pointwise, definitional after the final re-anchor
    assert np.array_equal(u.y_prime,
                          diffusion_rows(spec.diffusion, neumann_scale, u.y))
    step, _, _ = _rough_window(spec, D, lifted_y0)
    phi = step(u)
    assert crp_distance(phi, u, D, stride=8) <= 10 * spec.picard.tol


def test_restart_and_horizon_consistency(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    one = solve_global(spec)
    # restart by hand: solve to t = 0.5, then from that state on the shifted driver
    half = solve_global(ProblemSpec(neumann_scale, D.restricted(1, stop=512),
                                    _squashed(neumann_scale), lifted_y0))
    rest = solve_global(ProblemSpec(neumann_scale, shift(D, 0.5),
                                    _squashed(neumann_scale), half.path.y[-1]))
    two = np.vstack((half.path.y, rest.path.y[1:]))
    gap = np.max(neumann_scale.norm(one.path.y - two, -neumann_scale.eta))
    assert gap <= 10 * spec.picard.tol

    gap2 = np.max(neumann_scale.norm(half.path.y - one.path.y[:513],
                                     -neumann_scale.eta))
    assert gap2 <= 10 * spec.picard.tol


def test_contraction_factor_versus_window(neumann_scale, lifted_y0):
    # late-iteration sup-norm contraction factors on nested windows: never
    # above the full-horizon factor (the bound's T^gamma prefactor acts one
    # way), with a strict mean decrease across seeds; pathwise the factor can
    # stay flat when the contraction-dominant segment sits in the first
    # quarter (causality of the mild equation).
    F = _squashed(neumann_scale, gain=8.0, amp=6.0)
    drops = []
    for seed in (2, 5):
        D = sample_fbm(0.45, 2048, 1.0, seed=seed, gamma=0.40)
        spec = ProblemSpec(neumann_scale, D, F, lifted_y0,
                           picard=PicardParams(1e-13, 80, 10))
        qs = {}
        for stop in (2048, 512):
            win = D.restricted(1, stop=stop)
            step, _, u = _rough_window(spec, win, lifted_y0)
            dists = []
            for _ in range(9):
                nxt = step(u)
                dists.append(np.max(neumann_scale.norm(nxt.y - u.y,
                                                       -neumann_scale.eta)))
                u = nxt
            r = np.array(dists[1:]) / np.array(dists[:-1])
            qs[stop] = stats.gmean(r[2:])
        assert qs[2048] < 1.0
        assert qs[512] <= qs[2048] + 0.03
        drops.append(qs[2048] - qs[512])
    assert np.mean(drops) >= 0.1


def test_linear_noise_self_convergence_envelope(neumann_scale, lifted_y0):
    # linear trace noise, T = 1, H = 0.45: terminal-state changes under grid
    # doubling shrink within the measured envelope (pooled over seeds; the
    # pathwise per-doubling ratio is noisy)
    w0, w1 = default_trace_weights(neumann_scale, 0.8)
    F = LinearTrace(w0, w1, -neumann_scale.eta, 2.0)
    per_seed = []
    for seed in (0, 1, 2):
        master = sample_fbm(0.45, 4096, 1.0, seed=seed, gamma=0.40)
        ys = {}
        for n in (512, 1024, 2048, 4096):
            D = master.restricted(4096 // n)
            ys[n] = solve_global(ProblemSpec(neumann_scale, D, F,
                                             lifted_y0)).path.y[-1]
        per_seed.append([
            float(neumann_scale.norm(ys[512] - ys[1024], -neumann_scale.eta)),
            float(neumann_scale.norm(ys[1024] - ys[2048], -neumann_scale.eta)),
            float(neumann_scale.norm(ys[2048] - ys[4096], -neumann_scale.eta)),
        ])
    g = stats.gmean(np.array(per_seed), axis=0)
    assert g[0] > g[1] > g[2]
    assert g[1] / g[2] >= 1.2


def test_contraction_failure_reported(neumann_scale, lifted_y0, dirichlet_scale):
    w0, w1 = default_trace_weights(neumann_scale, 30.0)
    F = SquashedTrace(w0, w1, 20.0, -neumann_scale.eta, 2.0, bias=(0.5, -0.4))
    D = sample_fbm(0.45, 2048, 1.0, seed=2, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, F, lifted_y0,
                       picard=PicardParams(1e-9, 25, 1))
    with pytest.raises(ContractionFailure, match="driver too rough"):
        solve_global(spec)

    # the Young regime fails through the same halving loop, with the same text
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    w0, w1 = default_trace_weights(dirichlet_scale, 30.0)
    F = SquashedTrace(w0, w1, 20.0, -dirichlet_scale.eta, 2.5, bias=(0.5, -0.4))
    D = sample_fbm(0.8, 2048, 1.0, seed=2, gamma=0.77)
    spec = ProblemSpec(dirichlet_scale, D, F, y0, picard=PicardParams(1e-9, 25, 1))
    with pytest.raises(ContractionFailure,
                       match=r"after 1 halvings \(driver too rough"):
        solve_young_dirichlet(spec)


def _count_distances(monkeypatch):
    """Record every Picard distance evaluation the solvers make."""
    calls = []
    for name in ("crp_distance", "path_seminorm"):
        def counted(*args, fn=getattr(solver, name), **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    return calls


def _count_steps(monkeypatch):
    """Record every Picard step the window engine runs, in either regime."""
    steps = []
    for name in ("_rough_window", "_young_window"):
        def counted(*args, regime=getattr(solver, name)):
            step, distance, start = regime(*args)

            def counted_step(u):
                steps.append(None)
                return step(u)
            return counted_step, distance, start
        monkeypatch.setattr(solver, name, counted)
    return steps


def test_iterations_count_the_picard_steps_run(monkeypatch, neumann_scale,
                                               lifted_y0, dirichlet_scale):
    # both problems halve a window whose iteration stopped early on a rising
    # distance; only the steps actually run may be reported, and the distance
    # schedule evaluates fewer distances than that.  Window ends and step
    # counts are pinned, so any move of a halved window shows.
    steps, calls = _count_steps(monkeypatch), _count_distances(monkeypatch)
    w0, w1 = default_trace_weights(neumann_scale, 5.0)
    F = SquashedTrace(w0, w1, 4.0, -neumann_scale.eta, 2.0, bias=(0.3, -0.2))
    D = sample_fbm(0.45, 512, 1.0, seed=0, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, F, lifted_y0))
    assert res.window_ends == (0.25, 1.0)
    assert res.iterations == len(steps) == 141
    assert len(calls) == 27 < len(steps)

    steps.clear()
    calls.clear()
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    w0, w1 = default_trace_weights(dirichlet_scale, 0.8)
    F = SquashedTrace(w0, w1, 1.0, -dirichlet_scale.eta, 2.5, bias=(0.3, -0.2))
    D = sample_fbm(0.8, 2048, 1.0, seed=102, gamma=0.77)
    res = solve_young_dirichlet(ProblemSpec(dirichlet_scale, D, F, y0))
    assert res.window_ends == (0.5, 1.0)
    assert res.iterations == len(steps) == 45
    assert len(calls) == 18 < len(steps)


@pytest.mark.parametrize("drift", [None, LinearDrift(-0.5, 0.85)],
                         ids=["no_drift", "linear"])
def test_a_rough_picard_step_runs_one_scan(monkeypatch, neumann_scale, lifted_y0,
                                           drift):
    # one mode_filter scan per step (the germ and the drift input share it)
    # and one per window attempt for the anchor, over halvings and windows
    scans, attempts = [], []
    for module in (solver, rough_convolution):
        def counted(*args, fn=module.mode_filter):
            scans.append(None)
            return fn(*args)
        monkeypatch.setattr(module, "mode_filter", counted)
    steps = _count_steps(monkeypatch)

    def attempt(*args, regime=solver._rough_window):
        attempts.append(None)
        return regime(*args)
    monkeypatch.setattr(solver, "_rough_window", attempt)
    D = sample_fbm(0.45, 512, 1.0, seed=0, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D,
                                   _squashed(neumann_scale, gain=5.0, amp=4.0),
                                   lifted_y0, drift=drift))
    assert len(attempts) > len(res.window_ends) >= 2
    assert res.iterations == len(steps)
    assert len(scans) == len(steps) + len(attempts)


class _NanAwayFromStart(ConstantBoundary):
    """Zero at the state y0 and NaN at every other state.

    ProblemSpec checks the maps at y0 only, so this one reaches the solver and
    makes the first Picard distance of every window NaN.
    """

    def __init__(self, y0, domain_alpha, delta2):
        super().__init__(0.0, 0.0, domain_alpha, delta2)
        self.y0 = np.asarray(y0, dtype=float)

    def value(self, y_rows):
        rows = np.asarray(y_rows, dtype=float)
        out = super().value(rows)
        out[~np.all(rows == self.y0, axis=1)] = np.nan
        return out


def test_non_finite_map_at_y0_is_rejected(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 256, 1.0, seed=1, gamma=0.40)
    nan_map = ConstantBoundary(np.nan, 0.0, neumann_scale.eps - 1.0, 2.0)
    with pytest.raises(ConfigError, match="diffusion map is non-finite"):
        ProblemSpec(neumann_scale, D, nan_map, lifted_y0)
    with pytest.raises(ConfigError, match="drift map is non-finite"):
        ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0,
                    drift=LinearDrift(np.inf, 0.85))
    # finite at y0 but NaN elsewhere: accepted here, the solver names it
    ProblemSpec(neumann_scale, D,
                _NanAwayFromStart(lifted_y0, neumann_scale.eps - 1.0, 2.0),
                lifted_y0)


def test_non_finite_distance_fails_the_window(monkeypatch, neumann_scale,
                                              lifted_y0, dirichlet_scale):
    # a diffusion that is NaN off y0 makes the first distance NaN: each window
    # must stop after that one step and halve, until the halving budget runs out
    calls = _count_distances(monkeypatch)
    picard = PicardParams(1e-9, 80, 3)
    nan_rough = _NanAwayFromStart(lifted_y0, neumann_scale.eps - 1.0, 2.0)
    D = sample_fbm(0.45, 256, 1.0, seed=1, gamma=0.40)
    with pytest.raises(ContractionFailure):
        solve_global(ProblemSpec(neumann_scale, D, nan_rough, lifted_y0,
                                 picard=picard))
    assert len(calls) == picard.max_halvings + 1

    calls.clear()
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    nan_young = _NanAwayFromStart(y0, -dirichlet_scale.eta, 2.5)
    D = sample_fbm(0.8, 256, 1.0, seed=1, gamma=0.77)
    with pytest.raises(ContractionFailure):
        solve_young_dirichlet(ProblemSpec(dirichlet_scale, D, nan_young, y0,
                                          picard=picard))
    assert len(calls) == picard.max_halvings + 1


def test_non_finite_distance_is_named_in_the_failure(neumann_scale, lifted_y0,
                                                    dirichlet_scale):
    picard = PicardParams(1e-9, 80, 3)
    nan_rough = _NanAwayFromStart(lifted_y0, neumann_scale.eps - 1.0, 2.0)
    D = sample_fbm(0.45, 256, 1.0, seed=1, gamma=0.40)
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    nan_young = _NanAwayFromStart(y0, -dirichlet_scale.eta, 2.5)
    E = sample_fbm(0.8, 256, 1.0, seed=1, gamma=0.77)
    cases = ((solve_global, neumann_scale, D, nan_rough, lifted_y0),
             (solve_young_dirichlet, dirichlet_scale, E, nan_young, y0))
    for solve, scale, driver, F, start in cases:
        with pytest.raises(ContractionFailure,
                           match="after 3 halvings.*non-finite"):
            solve(ProblemSpec(scale, driver, F, start, picard=picard))
        # a zero step budget evaluates no distance at all, finite or not
        with pytest.raises(ContractionFailure) as info:
            solve(ProblemSpec(scale, driver, F, start,
                              picard=PicardParams(1e-9, 0, 1)))
        assert "non-finite" not in str(info.value)


class _Iterate:
    """Stub Picard iterate: the step that made it, NaN rows at `nan_at`."""

    def __init__(self, k, nan_at=None):
        self.k = k
        self.y = np.full(2, np.nan if k == nan_at else 0.0)


def _stub_loop(dist_at, tol=1e-9, max_iter=80, max_halvings=10, nan_at=None):
    """(spec, regime, evaluated steps) of a stub problem whose distance after
    step k is dist_at(k); the stub spec carries only the Picard settings."""
    spec = SimpleNamespace(picard=PicardParams(tol, max_iter, max_halvings))
    evaluated = []

    def distance(a, b):
        assert a.k == b.k + 1
        evaluated.append(a.k)
        return dist_at(a.k)

    def regime(spec, window, y0):
        return (lambda u: _Iterate(u.k + 1, nan_at)), distance, _Iterate(0)
    return spec, regime, evaluated


def test_distance_schedule_on_a_geometric_loop():
    # d_k = 0.2^(k-1), tol 1e-9: after step 2 the gaps are min(m, the floor of
    # 0.8 log(tol/d)/log q) = 2, 4, 4, 1, 1 steps, and 0.2^13 is the first
    # evaluated distance below tol, the same step an every-step loop stops at
    spec, regime, evaluated = _stub_loop(lambda k: 0.2 ** (k - 1))
    u, m, q, dist = solver._iterate(spec, *regime(spec, None, None))
    assert evaluated == [1, 2, 4, 8, 12, 13, 14]
    assert u.k == m == 14
    assert dist == 0.2 ** 13 < 1e-9
    assert q == pytest.approx(0.2, rel=1e-12)


def test_two_rising_evaluated_distances_halve():
    # a rise across the gap 2 -> 4 counts as one rising distance, and the
    # rising loop is then evaluated every step
    dists = {1: 1.0, 2: 0.1, 4: 0.5, 5: 1.0}
    spec, regime, evaluated = _stub_loop(dists.__getitem__)
    u, m, q, dist = solver._iterate(spec, *regime(spec, None, None))
    assert u is None and m == 5 and q == 2.0 and dist == 1.0
    assert evaluated == [1, 2, 4, 5]


def test_schedule_is_clamped_to_the_last_allowed_step():
    # after step 4 the schedule asks for step 8; max_iter = 6 brings it to
    # step 6, where the loop first reaches tol and is accepted
    dists = {1: 1.0, 2: 0.1, 4: 0.01, 6: 5e-10}
    spec, regime, evaluated = _stub_loop(dists.__getitem__, max_iter=6)
    u, m, q, dist = solver._iterate(spec, *regime(spec, None, None))
    assert u.k == m == 6 and dist == 5e-10
    assert evaluated == [1, 2, 4, 6]


def test_non_finite_iterate_at_a_skipped_step_fails_the_window():
    # step 3's distance is skipped, and its NaN iterate still stops the loop,
    # though step 4's iterate would be finite again
    spec, regime, evaluated = _stub_loop(lambda k: 0.1 ** (k - 1), nan_at=3,
                                         max_halvings=2)
    u, m, q, dist = solver._iterate(spec, *regime(spec, None, None))
    assert u is None and m == 3 and np.isnan(dist)
    assert evaluated == [1, 2]
    with pytest.raises(ContractionFailure,
                       match=r"after 2 halvings \(a Picard iterate or "
                             r"distance was non-finite"):
        solver._halve(spec, _zero_driver(8, 1.0), 8, None, regime)


def test_bounded_drift_selector(neumann_scale, lifted_y0):
    d = SmoothBoundedDrift(2.0, 0.85)
    rows = np.array([[5.0, -7.0, 0.1] + [0.0] * 13])
    out = d.value(rows)
    assert np.all(np.abs(out) <= d.amp)
    assert out[0, 2] == pytest.approx(0.1, rel=1e-3)   # near-identity at 0
    D = sample_fbm(0.45, 512, 1.0, seed=1, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, _zero_diffusion(neumann_scale),
                                   lifted_y0, drift=d))
    assert np.isfinite(res.path.y).all()
    for amp in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            SmoothBoundedDrift(amp, 0.85)


def test_blowup_monitor_aborts(neumann_scale):
    # supercritical linear drift: the state passes 1e8 x max(1, |y0|) inside
    # the horizon and the no-blow-up monitor must abort with diagnostics
    t = np.linspace(0, 1, 2049)
    D = lift_geometric(t, np.zeros(2049), 0.40)
    y0 = np.zeros(16)
    y0[0] = 1.0
    spec = ProblemSpec(neumann_scale, D, _zero_diffusion(neumann_scale), y0,
                       drift=LinearDrift(25.0, 0.85))
    with pytest.raises(AprioriBoundViolation):
        solve_global(spec)


def test_growth_monitor_reported(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 512, 1.0, seed=3, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, _squashed(neumann_scale),
                                   lifted_y0))
    r = max(1.0, float(neumann_scale.norm(lifted_y0, -neumann_scale.eta)))
    sup = np.max(neumann_scale.norm(res.path.y, -neumann_scale.eta))
    assert res.apriori_m1 >= 0 and res.apriori_m2 >= 0
    assert sup <= res.apriori_m1 * r * np.exp(res.apriori_m2 * 1.0) * (1 + 1e-9)


def test_growth_bound_holds_at_every_grid_time(neumann_scale, lifted_y0):
    # the default CLI problem at n = 2048, seed 0: its sup peaks inside the
    # first window, 1.44 x the bound fitted to the window ends alone
    D = sample_fbm(0.45, 2048, 1.0, seed=0, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, _squashed(neumann_scale),
                                   lifted_y0))
    alpha = -neumann_scale.eta
    r = max(1.0, float(neumann_scale.norm(lifted_y0, alpha)))
    sups = np.maximum.accumulate(neumann_scale.norm(res.path.y, alpha))
    bound = res.apriori_m1 * r * np.exp(res.apriori_m2 * D.times)
    assert np.all(sups <= bound * (1 + 1e-12))


def test_growth_bound_from_zero_data(neumann_scale):
    # r = max(1, |y0|) = 1 and the sup stays below it: no growth rate, and M1
    # is the sup itself
    D = sample_fbm(0.45, 512, 1.0, seed=0, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, _squashed(neumann_scale),
                                   np.zeros(16)))
    sup = np.max(neumann_scale.norm(res.path.y, -neumann_scale.eta))
    assert 0 < sup < 1
    assert res.apriori_m2 == 0.0 and res.apriori_m1 == sup


def test_linear_bound_for_diffusion_chain(neumann_scale, lifted_y0):
    # ||(G(y), DG(y) o G(y))|| <= C (1 + ||(y, G(y))||), C stable in n
    F = _squashed(neumann_scale)
    ratios = []
    for n in (512, 1024):
        D = sample_fbm(0.45, n, 1.0, seed=3, gamma=0.40)
        res = solve_global(ProblemSpec(neumann_scale, D, F, lifted_y0))
        y = res.path
        g_rows = diffusion_rows(F, neumann_scale, y.y)
        dg_rows = diffusion_derivative_rows(F, neumann_scale, y.y, g_rows)
        gp = ControlledPath(D.times, g_rows, dg_rows, -neumann_scale.eta,
                            0.40, neumann_scale)
        stride = n // 256
        lhs = crp_norm(gp.restricted(stride), D.restricted(stride))
        rhs = 1.0 + crp_norm(y.restricted(stride), D.restricted(stride))
        ratios.append(lhs / rhs)
    assert max(ratios) <= 2.0           # frozen from measurement (~0.9)
    assert 0.5 <= ratios[1] / ratios[0] <= 2.0


def test_noise_convolution_growth_certificate(neumann_scale, lifted_y0):
    # ||(z, z')|| <= c0 + c1 T^gamma ||(G(y), DG(y) o G(y))||: with c0 the
    # anchor terms, the fitted c1 stays within the frozen band over horizons
    F = _squashed(neumann_scale)
    D = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, F, lifted_y0))
    for T, stop in ((0.25, 256), (0.5, 512), (1.0, 1024)):
        Dw = D.restricted(1, stop=stop)
        uw = res.path.restricted(1, stop=stop)
        lifted = lift_extrapolate(F, uw, neumann_scale)
        z = rough_convolve(lifted, Dw)
        stride = max(1, stop // 256)
        zn = crp_norm(z.restricted(stride), Dw.restricted(stride))
        inp = crp_norm(lifted.restricted(stride), Dw.restricted(stride))
        c0 = (float(neumann_scale.norm(lifted.y[0], -neumann_scale.eta))
              + float(neumann_scale.norm(lifted.y_prime[0],
                                         -neumann_scale.eta - 0.40)))
        c1 = max(0.0, zn - c0) / (T ** 0.40 * inp)
        assert c1 <= 1.5               # frozen from measurement (~0.8-0.93)


# -- Young / Dirichlet -------------------------------------------------------------

def test_young_pure_semigroup(dirichlet_scale):
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    t = np.linspace(0, 1, 513)
    D = lift_geometric(t, np.zeros(513), 0.77)
    spec = ProblemSpec(dirichlet_scale, D, _zero_diffusion(dirichlet_scale, 2.5),
                       y0)
    res = solve_young_dirichlet(spec)
    assert np.max(np.abs(res.path.y - dirichlet_scale.semigroup(t) * y0)) <= 1e-14


def test_young_additive_bypass(dirichlet_scale):
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    D = sample_fbm(0.8, 1024, 1.0, seed=3, gamma=0.77)
    F = ConstantBoundary(0.6, -0.4, -dirichlet_scale.eta, 2.5)
    res = solve_young_dirichlet(ProblemSpec(dirichlet_scale, D, F, y0))
    g0 = diffusion_rows(F, dirichlet_scale, y0[None, :])[0]
    gp = constant_path(D.times, g0, np.zeros(16), -dirichlet_scale.eta, 0.77,
                       dirichlet_scale)
    direct = (dirichlet_scale.semigroup(D.times) * y0
              + young_convolve(gp, D).y)
    gap = np.max(dirichlet_scale.norm(res.path.y - direct, -dirichlet_scale.eta))
    assert gap <= 1e-9


def test_young_windows_on_hard_seed(dirichlet_scale):
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    w0, w1 = default_trace_weights(dirichlet_scale, 0.8)
    F = SquashedTrace(w0, w1, 1.0, -dirichlet_scale.eta, 2.5, bias=(0.3, -0.2))
    D = sample_fbm(0.8, 2048, 1.0, seed=2, gamma=0.77)
    res = solve_young_dirichlet(ProblemSpec(dirichlet_scale, D, F, y0))
    assert res.path.times[-1] == pytest.approx(1.0)
    assert len(res.window_ends) >= 2   # this seed needs halving


def test_young_regularity_guards(dirichlet_scale):
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    # a Dirichlet scale at gamma = 0.55 cannot even be built
    import roughbound as rb
    with pytest.raises(DirichletRegularityError):
        rb.build_scale(rb.ScaleConfig(K=16, bc="dirichlet", gamma=0.55,
                                      delta=0.005))
    # and a too-rough driver is rejected by the solver guard
    t = np.linspace(0, 1, 129)
    D = lift_geometric(t, np.zeros(129), 0.55)
    bad = object.__new__(ProblemSpec)  # bypass gamma-match validation to hit the guard
    object.__setattr__(bad, "scale", dirichlet_scale)
    object.__setattr__(bad, "driver", D)
    object.__setattr__(bad, "diffusion", _zero_diffusion(dirichlet_scale, 2.5))
    object.__setattr__(bad, "y0", y0)
    object.__setattr__(bad, "drift", None)
    object.__setattr__(bad, "picard", PicardParams())
    with pytest.raises(DirichletRegularityError):
        solve_young_dirichlet(bad)


def test_rough_solver_rejects_dirichlet_scale(dirichlet_scale):
    y0 = dirichlet_map(BoundaryVector(0.5, -0.5), dirichlet_scale).coeffs
    D = sample_fbm(0.8, 256, 1.0, seed=3, gamma=0.77)
    spec = ProblemSpec(dirichlet_scale, D, _zero_diffusion(dirichlet_scale, 2.5),
                       y0)
    with pytest.raises(ConfigError):
        solve_local(spec)


# -- stability metric ---------------------------------------------------------------

def test_stability_distance_identical_is_zero(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 512, 1.0, seed=3, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, _squashed(neumann_scale),
                                   lifted_y0))
    assert stability_distance(res.path, res.path, D, D, 0.35) == 0.0


def test_stability_distance_gamma_prime_range(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 256, 1.0, seed=3, gamma=0.40)
    res = solve_global(ProblemSpec(neumann_scale, D, _squashed(neumann_scale),
                                   lifted_y0))
    with pytest.raises(ConfigError):
        stability_distance(res.path, res.path, D, D, 0.45)


def test_stability_distance_checks_each_path_against_its_driver(neumann_scale,
                                                                lifted_y0):
    D = sample_fbm(0.45, 256, 1.0, seed=3, gamma=0.40)
    sol = solve_global(ProblemSpec(neumann_scale, D, _squashed(neumann_scale),
                                   lifted_y0)).path
    for other in (sample_fbm(0.45, 64, 1.0, seed=3, gamma=0.40),
                  sample_fbm(0.45, 256, 2.0, seed=3, gamma=0.40)):
        with pytest.raises(GridMismatch):
            stability_distance(sol, sol, other, D, 0.35)
        with pytest.raises(GridMismatch):
            stability_distance(sol, sol, D, other, 0.35)


def test_stability_distance_matches_brute_force(neumann_scale):
    # two different drivers: each remainder is taken over its own driver
    D1 = sample_fbm(0.45, 24, 1.0, seed=4, gamma=0.40)
    D2 = sample_fbm(0.45, 24, 1.0, seed=9, gamma=0.40)
    rng = np.random.default_rng(6)
    sol1, sol2 = (ControlledPath(D1.times, rng.standard_normal((25, 16)),
                                 rng.standard_normal((25, 16)),
                                 -neumann_scale.eta, 0.40, neumann_scale)
                  for _ in range(2))
    assert stability_distance(sol1, sol2, D1, D2, 0.35) == pytest.approx(
        brute_force_stability_distance(sol1, sol2, D1, D2, 0.35), rel=1e-12)


def test_stability_linear_response(neumann_scale, lifted_y0):
    from roughbound.studies import stability_study
    F = _squashed(neumann_scale)
    driver_st, initial_st = stability_study(
        neumann_scale, F, lifted_y0, H=0.45, n=512, T=1.0, gamma=0.40,
        seed=0, gamma_prime=0.35, lambdas=(0.95, 1.05), eps0=(-0.05, 0.05))
    assert driver_st.ok and initial_st.ok
    assert driver_st.slope > 0 and initial_st.slope > 0


# -- cocycle --------------------------------------------------------------------------

def test_cocycle_tau_zero(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    assert cocycle_defect(spec, 0.25, 0.0, 256) == 0.0


def test_cocycle_t_zero(neumann_scale, lifted_y0):
    # phi(0, w, .) is the identity, whatever the resolution
    D = sample_fbm(0.45, 64, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    assert cocycle_defect(spec, 0.0, 0.25, 1) == 0.0


@pytest.mark.parametrize("t, tau", [(-0.25, 0.25), (0.25, -0.25),
                                    (np.nan, 0.25), (0.25, np.nan),
                                    (np.inf, 0.25), (0.25, np.inf)])
def test_cocycle_defect_needs_finite_nonnegative_spans(neumann_scale, lifted_y0,
                                                        t, tau):
    D = sample_fbm(0.45, 64, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    with pytest.raises(ConfigError, match="t=.*tau="):
        cocycle_defect(spec, t, tau, 1)


def test_cocycle_zero_noise(neumann_scale, lifted_y0):
    D = _zero_driver(2048, 0.5)
    spec = ProblemSpec(neumann_scale, D, _zero_diffusion(neumann_scale), lifted_y0)
    assert cocycle_defect(spec, 0.25, 0.25, 512) <= 1e-8


def test_cocycle_defect_needs_a_resolution_that_divides_the_window(
        neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 64, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    with pytest.raises(GridMismatch):   # 3 does not divide 32 steps (t + tau)
        cocycle_defect(spec, 0.25, 0.25, 3)
    for resolution in (0, -1):
        with pytest.raises(ConfigError):
            cocycle_defect(spec, 0.25, 0.25, resolution)


@pytest.mark.parametrize("resolution", [2.0, 2.5, True])
def test_cocycle_defect_needs_an_integer_resolution(neumann_scale, lifted_y0,
                                                    resolution):
    # 2.0 would reach the grid check as the stride 16.0, True would run as 1
    D = sample_fbm(0.45, 64, 1.0, seed=3, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    with pytest.raises(ConfigError, match="resolution"):
        cocycle_defect(spec, 0.25, 0.25, resolution)


def test_cocycle_defect_scale(neumann_scale, lifted_y0):
    D = sample_fbm(0.45, 2048, 0.5, seed=0, gamma=0.40)
    spec = ProblemSpec(neumann_scale, D, _squashed(neumann_scale), lifted_y0)
    d = cocycle_defect(spec, 0.25, 0.25, 512)
    assert 0 < d < 0.1
