import numpy as np
import pytest
from scipy import stats

from roughbound import (BOUNDARY, BoundaryVector, ConfigError,
                        ConstantBoundary, ControlledPath, GridMismatch,
                        RegularityError, RoughDriver, SquashedTrace,
                        constant_path, default_trace_weights, level_sum,
                        lift_geometric, neumann_map, remainder_certificate,
                        rough_convolve, sample_fbm, sewing_convergence,
                        young_convolve)
from roughbound import ScaleConfig, build_scale
from roughbound import studies
from roughbound.controlled_path import crp_distance
from roughbound.rough_convolution import log2_slope, mode_filter
from roughbound.studies import canonical_integrand

from conftest import (compose_smooth, interchange_error, lift_controlled, scaled,
                      xx_lag)


def _squashed(scale, gain=0.8, delta2=2.0):
    w0, w1 = default_trace_weights(scale, gain)
    return SquashedTrace(w0, w1, 1.0, scale.eps - 1.0, delta2, bias=(0.3, -0.2))


def test_zero_integrand(neumann_scale, driver_small):
    p = constant_path(driver_small.times, np.zeros(16), np.zeros(16), -0.3,
                      0.40, neumann_scale)
    z = rough_convolve(p, driver_small)
    assert np.all(z.y == 0.0)


def test_gubinelli_derivative_is_integrand(neumann_scale, driver_small):
    rng = np.random.default_rng(0)
    y = rng.standard_normal((driver_small.n + 1, 16))
    p = ControlledPath(driver_small.times, y, np.zeros_like(y), -0.3, 0.40,
                       neumann_scale)
    z = rough_convolve(p, driver_small)
    assert np.array_equal(z.y_prime, p.y)
    assert z.alpha == p.alpha


def test_constant_path_smooth_driver_mode_integral(neumann_scale):
    # exact mode integral (1 - e^{-mu t}) / mu; left-point compensated sums
    # converge at first order in the grid
    v = np.eye(16)[1]
    errs = []
    for n in (128, 256, 512):
        t = np.linspace(0, 1, n + 1)
        D = lift_geometric(t, t.copy(), 0.45)
        p = constant_path(t, v, np.zeros(16), -0.3, 0.45, neumann_scale)
        z = rough_convolve(p, D)
        mu1 = neumann_scale.mu[1]
        errs.append(abs(z.y[-1, 1] - (1 - np.exp(-mu1)) / mu1))
    fit = stats.linregress(np.log2([128, 256, 512]), np.log2(errs))
    assert -fit.slope >= 0.9


def test_additive_case_matches_fine_young_oracle(neumann_scale):
    # y = v constant, y' = 0: the second-order term drops and the integral is
    # the plain compensated sum; a direct-loop oracle on the 16x finer grid of
    # the same sample agrees to the frozen tolerance (measured 0.005).
    fine = sample_fbm(0.45, 16 * 256, 1.0, seed=3, gamma=0.40)
    coarse = fine.restricted(16)
    v = neumann_map(BoundaryVector(0.5, -0.8), neumann_scale).coeffs
    p = constant_path(coarse.times, v, np.zeros(16), -0.3, 0.40, neumann_scale)
    z = rough_convolve(p, coarse)

    mu = neumann_scale.mu
    dx = np.diff(fine.X)
    oracle = np.zeros((coarse.n + 1, 16))
    for ci in range(1, coarse.n + 1):
        ti = 16 * ci
        w = np.exp(-np.outer(fine.times[ti] - fine.times[:ti], mu))
        oracle[ci] = v * np.sum(w * dx[:ti, None], axis=0)
    rel = (np.max(neumann_scale.norm(z.y - oracle, -0.3))
           / np.max(neumann_scale.norm(oracle, -0.3)))
    assert rel <= 0.02


def test_chasles_with_semigroup_compensation(neumann_scale, driver_small):
    # splitting the compensated sum at a grid point is exact
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    p = canonical_integrand(neumann_scale, F, y0, driver_small)
    z = rough_convolve(p, driver_small)
    s, t = 100, 230
    damp = np.exp(-neumann_scale.mu * (driver_small.times[t] - driver_small.times[s]))
    dx = np.diff(driver_small.X)
    xx = xx_lag(driver_small, 1)
    acc = np.zeros(16)
    for u in range(s, t):
        w = np.exp(-neumann_scale.mu * (driver_small.times[t] - driver_small.times[u]))
        acc += w * (p.y[u] * dx[u] + p.y_prime[u] * xx[u])
    assert np.max(np.abs(z.y[t] - (damp * z.y[s] + acc))) <= 1e-13


def test_linearity_in_integrand(neumann_scale, driver_small):
    rng = np.random.default_rng(4)
    n = driver_small.n
    mk = lambda: ControlledPath(driver_small.times,
                                rng.standard_normal((n + 1, 16)),
                                rng.standard_normal((n + 1, 16)),
                                -0.3, 0.40, neumann_scale)
    p, q = mk(), mk()
    both = ControlledPath(driver_small.times, p.y + q.y, p.y_prime + q.y_prime,
                          -0.3, 0.40, neumann_scale)
    lhs = rough_convolve(both, driver_small).y
    rhs = rough_convolve(p, driver_small).y + rough_convolve(q, driver_small).y
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_sewing_smooth_integrand_first_order_decay(neumann_scale):
    # for a constant integrand the midpoint decomposition telescopes exactly
    # and only the semigroup correction remains: first-order decay per level
    n = 2048
    t = np.linspace(0, 1, n + 1)
    D = lift_geometric(t, np.sin(t) - np.sin(0), 0.45)
    p = constant_path(t, np.eye(16)[0], np.zeros(16), -0.3, 0.45, neumann_scale)
    rep = sewing_convergence(p, D, 1.0, range(4, 10))
    assert rep.slope >= 0.9


def test_sewing_telescoping_exact_for_tiny_generator():
    # same setup with a near-identity semigroup: the defects collapse to the
    # machine floor because nothing but the semigroup correction contributes
    import roughbound as rb
    sc = rb.build_scale(rb.ScaleConfig(a=1e-9, b=-1e-9, K=8, gamma=0.45))
    n = 2048
    t = np.linspace(0, 1, n + 1)
    D = lift_geometric(t, np.sin(t) - np.sin(0), 0.45)
    # alpha chosen so the defect norm is measured at weightless index 0
    # (mu ~ 1e-9 makes negative-index weights explode)
    p = constant_path(t, np.ones(8), np.zeros(8), 0.9, 0.45, sc)
    rep = sewing_convergence(p, D, 1.0, range(4, 10))
    assert np.max(rep.defects) <= 1e-6


def test_sewing_defect_homogeneity(neumann_scale, driver_small):
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    p = canonical_integrand(neumann_scale, F, y0, driver_small)
    r1 = sewing_convergence(p, driver_small, 1.0, range(3, 7))
    r2 = sewing_convergence(scaled(p, 2.0), driver_small, 1.0, range(3, 7))
    assert np.allclose(r2.defects, 2.0 * r1.defects, rtol=1e-12)


def test_sewing_rate_fbm(neumann_scale):
    # pooled over a few seeds here; the full 20-seed version is acceptance #5
    from roughbound.studies import sewing_study
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    st = sewing_study(neumann_scale, F, y0, H=0.45, n=2048, T=1.0, gamma=0.40,
                      seeds=range(5), levels=range(4, 11), beta=0.0)
    assert st.slope >= st.target


def test_remainder_zero_for_zero_path(neumann_scale, driver_small):
    p = constant_path(driver_small.times, np.zeros(16), np.zeros(16), -0.3,
                      0.40, neumann_scale)
    z = rough_convolve(p, driver_small)
    rep = remainder_certificate(p, driver_small, z, stride=32)
    assert all(r == 0.0 for r in rep.sup_ratios)


def test_remainder_constant_path_semigroup_taylor(neumann_scale):
    # for constant y and a smooth driver the remainder is the semigroup-Taylor
    # defect; check it against an independent per-mode loop and measure the
    # (t-s)^(1+gamma) scaling on small windows
    n = 512
    t = np.linspace(0, 1, n + 1)
    D = lift_geometric(t, t.copy(), 0.45)
    v = np.eye(16)[1] + 0.5 * np.eye(16)[3]
    p = constant_path(t, v, np.zeros(16), -0.3, 0.45, neumann_scale)
    z = rough_convolve(p, D)
    mu = neumann_scale.mu
    h = 1.0 / n

    def direct_remainder(s, tt):
        acc = np.zeros(16)
        for u in range(s, tt):
            acc += np.exp(-mu * (t[tt] - t[u])) * v * h
        return acc - np.exp(-mu * (t[tt] - t[s])) * v * (t[tt] - t[s])

    gaps = [4, 8, 16, 32, 64]
    norms = []
    for gap in gaps:
        r = direct_remainder(128, 128 + gap)
        # certificate-internal remainder must agree with the direct loop
        damp = np.exp(-mu * (t[128 + gap] - t[128]))
        head = v * (t[128 + gap] - t[128])
        cert_r = z.y[128 + gap] - damp * (z.y[128] + head)
        assert np.max(np.abs(cert_r - r)) <= 1e-14
        norms.append(float(neumann_scale.norm(r, -0.3)))
    fit = stats.linregress(np.log([g * h for g in gaps]), np.log(norms))
    assert fit.slope >= 1.0 + 0.45


def test_remainder_ratio_stable_under_refinement(neumann_scale):
    from roughbound.studies import remainder_refinement_study
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    st = remainder_refinement_study(neumann_scale, F, y0, H=0.45, n=256,
                                    T=1.0, gamma=0.40, seed=5)
    assert st.ok


def test_domain_membership_proxy(neumann_scale):
    # lifted boundary path at index eps: |z_t|_1 stays put as K -> 4K,
    # the truncation-level signature of the integral landing in D(A)
    norms = {}
    for K in (16, 64):
        import roughbound as rb
        sc = rb.build_scale(rb.ScaleConfig(K=K, gamma=0.40, delta=0.05))
        D = sample_fbm(0.45, 512, 1.0, seed=5, gamma=0.40)
        g = ConstantBoundary(0.7, -0.3, -sc.eta, 2.0)
        p = constant_path(D.times, lift_controlled(
            compose_smooth(g, constant_path(D.times, np.zeros(K), np.zeros(K),
                                            -sc.eta, 0.40, sc)), sc).y[0],
            np.zeros(K), sc.eps, 0.40, sc)
        z = rough_convolve(p, D)
        norms[K] = [float(sc.norm(z.y[i], 1.0)) for i in (128, 256, 512)]
    for a, b in zip(norms[16], norms[64]):
        assert b <= a * 1.05


def test_gubinelli_contract_seminorm_stable(neumann_scale):
    # the pair (z, y) keeps a finite 2 gamma remainder seminorm whose
    # rho-normalized value is stable under grid refinement
    from conftest import remainder_seminorm
    from roughbound import rho
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    master = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
    vals = []
    for n in (512, 1024):
        D = master.restricted(1024 // n)
        P = canonical_integrand(neumann_scale, F, y0, D)
        Z = rough_convolve(P, D)
        stride = n // 128
        Zr, Dr = Z.restricted(stride), D.restricted(stride)
        sem = remainder_seminorm(neumann_scale, Zr.times, Zr.y, Zr.y_prime,
                                 Dr.X, P.alpha - 0.8, 0.8)
        vals.append(sem / rho(D))
    assert vals[0] > 0
    assert 0.5 <= vals[1] / vals[0] <= 2.0


def test_interchange_identity(neumann_scale):
    # acceptance #7 runs 10 seeds x 3 maps; spot-check here
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    D = sample_fbm(0.45, 512, 1.0, seed=11, gamma=0.40)
    assert interchange_error(neumann_scale, F, y0, D) <= 1e-10


def test_young_constant_path_closed_form(neumann_scale):
    v = np.eye(16)[2]
    errs = []
    for n in (256, 512):
        t = np.linspace(0, 1, n + 1)
        D = lift_geometric(t, t.copy(), 0.9)
        p = constant_path(t, v, np.zeros(16), -0.3, 0.9, neumann_scale)
        z = young_convolve(p, D)
        mu2 = neumann_scale.mu[2]
        errs.append(abs(z.y[-1, 2] - (1 - np.exp(-mu2)) / mu2))
    assert errs[1] <= 0.6 * errs[0]
    assert errs[0] <= 2e-3


def test_young_regularity_guard(neumann_scale, driver_small):
    p = constant_path(driver_small.times, np.ones(16), np.zeros(16), -0.3,
                      0.40, neumann_scale)
    with pytest.raises(RegularityError):
        young_convolve(p, driver_small)  # gamma = 0.40 <= 1/2


def _boundary_path(D):
    rows = np.ones((D.n + 1, 2))
    return ControlledPath(D.times, rows, rows, 2.0, D.gamma, BOUNDARY)


def _interior_path(scale, D):
    return constant_path(D.times, np.ones(scale.K), np.zeros(scale.K), -0.3,
                         D.gamma, scale)


# entry -> (error, call on a Neumann scale and a 64-step driver with gamma > 1/2)
UNUSABLE_INPUTS = {
    "rough_convolve on a boundary path": (
        ConfigError, lambda sc, D: rough_convolve(_boundary_path(D), D)),
    "young_convolve on a boundary path": (
        ConfigError, lambda sc, D: young_convolve(_boundary_path(D), D)),
    "level_sum at a negative level": (
        ConfigError, lambda sc, D: level_sum(_interior_path(sc, D), D, 64, -1)),
    # 8 pieces do not split 12 steps, though every 12 // 8 = 1st point would
    "level_sum off its partition": (
        GridMismatch, lambda sc, D: level_sum(_interior_path(sc, D), D, 12, 3)),
    "lift_controlled on an interior path": (
        ConfigError, lambda sc, D: lift_controlled(_interior_path(sc, D), sc)),
    "SquashedTrace with amp 0": (
        ConfigError, lambda sc, D: SquashedTrace(*default_trace_weights(sc), 0.0,
                                                 sc.eps - 1.0, 2.0)),
    "SquashedTrace with amp < 0": (
        ConfigError, lambda sc, D: SquashedTrace(*default_trace_weights(sc), -1.0,
                                                 sc.eps - 1.0, 2.0)),
    "SquashedTrace with amp nan": (
        ConfigError, lambda sc, D: SquashedTrace(*default_trace_weights(sc), np.nan,
                                                 sc.eps - 1.0, 2.0)),
    "SquashedTrace with amp inf": (
        ConfigError, lambda sc, D: SquashedTrace(*default_trace_weights(sc), np.inf,
                                                 sc.eps - 1.0, 2.0)),
    # a remainder stride must select at least two of the 65 grid points
    "remainder_certificate at stride 0": (
        ConfigError, lambda sc, D: _remainder_at_stride(sc, D, 0)),
    "remainder_certificate at stride -1": (
        ConfigError, lambda sc, D: _remainder_at_stride(sc, D, -1)),
    "remainder_certificate past the grid": (
        ConfigError, lambda sc, D: _remainder_at_stride(sc, D, 100)),
    "crp_distance at stride 0": (
        ConfigError, lambda sc, D: crp_distance(_interior_path(sc, D),
                                                _interior_path(sc, D), D, 0)),
    "crp_distance at stride -1": (
        ConfigError, lambda sc, D: crp_distance(_interior_path(sc, D),
                                                _interior_path(sc, D), D, -1)),
    # 3 does not divide the 64 steps of the grid
    "crp_distance at stride 3": (
        GridMismatch, lambda sc, D: crp_distance(_interior_path(sc, D),
                                                 _interior_path(sc, D), D, 3)),
}
# a count is an integer: neither a whole float, nor a fraction, nor a bool
for _count in (16.0, 2.5, True):
    UNUSABLE_INPUTS[f"level_sum at t_idx {_count!r}"] = (
        ConfigError, lambda sc, D, c=_count: level_sum(_interior_path(sc, D), D,
                                                       c, 0))
for _count in (3.0, 2.5, True):
    UNUSABLE_INPUTS[f"level_sum at level {_count!r}"] = (
        ConfigError, lambda sc, D, c=_count: level_sum(_interior_path(sc, D), D,
                                                       16, c))
for _stride in (2.0, 2.5, True):
    UNUSABLE_INPUTS[f"remainder_certificate at stride {_stride!r}"] = (
        ConfigError, lambda sc, D, s=_stride: _remainder_at_stride(sc, D, s))
    UNUSABLE_INPUTS[f"crp_distance at stride {_stride!r}"] = (
        ConfigError, lambda sc, D, s=_stride: crp_distance(
            _interior_path(sc, D), _interior_path(sc, D), D, s))
# a level is an integer too; levels 3 and 4 fit the 64 steps of the grid
for _levels in ([3.5, 4.5], (3, 4.9), [True, 3]):
    UNUSABLE_INPUTS[f"sewing_convergence at levels {_levels!r}"] = (
        ConfigError, lambda sc, D, lv=_levels: _sewing_at(sc, D, lv))
for _beta in (np.nan, np.inf):
    UNUSABLE_INPUTS[f"sewing_convergence at beta {_beta!r}"] = (
        ConfigError, lambda sc, D, b=_beta: _sewing_at(sc, D, (3, 4), b))


def _remainder_at_stride(scale, D, stride):
    P = _interior_path(scale, D)
    return remainder_certificate(P, D, young_convolve(P, D), stride=stride)


def _sewing_at(scale, D, levels, beta=0.0):
    return sewing_convergence(_interior_path(scale, D), D, 1.0, levels, beta=beta)


@pytest.mark.parametrize("entry", sorted(UNUSABLE_INPUTS))
def test_convolution_entries_reject_unusable_inputs(entry, neumann_scale):
    error, call = UNUSABLE_INPUTS[entry]
    t = np.linspace(0.0, 1.0, 65)
    D = lift_geometric(t, np.sin(3.0 * t), 0.77)
    with pytest.raises(error):
        call(neumann_scale, D)


def _no_draw(*args, **kwargs):
    raise AssertionError("the setting should be rejected before any draw")


def _sewing(scale, F, y0, levels=range(3, 6), **kw):
    kw.setdefault("seeds", range(2))
    return studies.sewing_study(scale, F, y0, H=0.45, n=256, T=1.0, gamma=0.40,
                                levels=levels, **kw)


def _remainder(scale, F, y0):
    return studies.remainder_refinement_study(scale, F, y0, H=0.45, n=256,
                                              T=1.0, gamma=0.40, seed=5)


@pytest.mark.parametrize("study", [_sewing, _remainder])
@pytest.mark.parametrize("bad", ["map", "y0"])
def test_studies_reject_a_non_finite_problem_before_any_draw(
        monkeypatch, neumann_scale, study, bad):
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    F, y0 = _squashed(neumann_scale), np.zeros(16)
    if bad == "map":
        F = ConstantBoundary(np.nan, 0.0, neumann_scale.eps - 1.0, 2.0)
    else:
        y0[3] = np.nan
    with pytest.raises(ConfigError):
        study(neumann_scale, F, y0)


def test_sewing_study_rejects_fractional_levels_before_any_draw(
        monkeypatch, neumann_scale):
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    with pytest.raises(ConfigError):
        _sewing(neumann_scale, _squashed(neumann_scale), np.zeros(16),
                levels=[3.5, 5.5])


@pytest.mark.parametrize("kw", [
    dict(beta=np.nan), dict(beta=np.inf), dict(seeds=[1, -1]),
    dict(seeds=[1, 2.5]), dict(seeds=[1, True]), dict(seeds=3)],
    ids=["beta_nan", "beta_inf", "seed_negative", "seed_fraction", "seed_bool",
         "seeds_not_iterable"])
def test_sewing_study_rejects_beta_and_seeds_before_any_draw(
        monkeypatch, neumann_scale, kw):
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    with pytest.raises(ConfigError):
        _sewing(neumann_scale, _squashed(neumann_scale), np.zeros(16), **kw)


def test_multi_seed_studies_check_every_seed_before_any_draw(monkeypatch,
                                                             neumann_scale):
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        studies.invariants_battery(neumann_scale, seeds=[0, 1, -2])
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        studies.cocycle_study(neumann_scale, _squashed(neumann_scale),
                              np.zeros(16), H=0.45, master_n=256, T=1.0,
                              gamma=0.40, seeds=[0, 1.0], resolutions=(64, 128),
                              t=0.5, tau=0.25)


def test_invariants_battery_fails_a_nan_interpolation_ratio():
    # a = 1e300 overflows the weighted norms, so some of the 200 ratios are
    # NaN: the check reports NaN and fails instead of dropping them
    scale = build_scale(ScaleConfig(a=1e300, K=16, gamma=0.40))
    with np.errstate(over="ignore", invalid="ignore"):
        checks = studies.invariants_battery(scale)
    check = next(c for c in checks if c.name == "interpolation_inequality")
    assert np.isnan(check.value) and not check.ok
    assert "interpolation_inequality FAIL value=nan" in check.line()


def test_invariants_battery_fails_a_nan_chen_defect(monkeypatch,
                                                    neumann_scale):
    defects = iter([0.0, np.nan, 0.0])
    monkeypatch.setattr(studies, "driver_chen_defect_max",
                        lambda D: next(defects))
    checks = studies.invariants_battery(neumann_scale, seeds=range(3))
    assert checks[0].name == "chen_geometric_defect"
    assert np.isnan(checks[0].value) and not checks[0].ok
    assert all(c.ok for c in checks[1:])


def test_numpy_integer_strides_are_accepted(neumann_scale):
    t = np.linspace(0.0, 1.0, 65)
    D = lift_geometric(t, np.sin(3.0 * t), 0.77)
    P = _interior_path(neumann_scale, D)
    two = np.int64(2)
    assert crp_distance(P, P, D, two) == 0.0
    assert (_remainder_at_stride(neumann_scale, D, two).sup_ratios
            == _remainder_at_stride(neumann_scale, D, 2).sup_ratios)


def test_young_sewing_rate(dirichlet_scale):
    from roughbound.studies import sewing_study
    w0, w1 = default_trace_weights(dirichlet_scale, 0.8)
    F = SquashedTrace(w0, w1, 1.0, dirichlet_scale.eps - 1.0, 2.5,
                      bias=(0.3, -0.2))
    y0 = np.zeros(16)
    y0[:4] = (0.4, -0.2, 0.1, 0.05)
    st = sewing_study(dirichlet_scale, F, y0, H=0.8, n=2048, T=1.0, gamma=0.77,
                      seeds=range(5), levels=range(4, 10), beta=0.0)
    assert st.slope >= st.target


# -- the per-mode recurrence and the fits ------------------------------------------

def _sequential_filter(damp, xi):
    z = np.zeros((xi.shape[0] + 1, damp.size))
    for i in range(xi.shape[0]):
        z[i + 1] = damp * z[i] + xi[i]
    return z


# mu h from 0 (damp = 1) through 750 and beyond (damp underflows to 0), which
# shrinks the block to one step; the moderate rates keep a 16-step block
RATES = {"full range": [0.0, 1e-4, 0.01, 0.3, 2.0, 20.0, 700.0, 750.0, 1e4],
         "moderate": [0.5, 30.0]}


@pytest.mark.parametrize("rates", sorted(RATES))
@pytest.mark.parametrize("n", [1, 7, 32, 100, 1024, 2048])
def test_mode_filter_matches_the_sequential_recurrence(n, rates):
    rng = np.random.default_rng(n)
    damp = np.exp(-np.array(RATES[rates]))
    xi = rng.standard_normal((n, damp.size))
    # the input of the rough and Young scans (damped germs) and of the drift scan
    for gain in (damp, np.ones_like(damp)):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            z = mode_filter(damp, gain * xi)
        ref = _sequential_filter(damp, gain * xi)
        assert z.shape == (n + 1, damp.size) and np.all(np.isfinite(z))
        assert np.all(z[0] == 0.0)
        scale = np.maximum(np.max(np.abs(ref), axis=0), 1e-300)
        assert np.all(np.max(np.abs(z - ref), axis=0) <= 1e-13 * scale)


def test_mode_filter_keeps_a_bounded_cache_of_its_constants():
    # the scan constants of each damping vector are cached; a repeated call
    # is bitwise the first, with or without the zero padding (the moderate
    # rates keep B = 16, which divides 1024 but not 100), and the cache
    # never holds more than its bound
    from roughbound import rough_convolution
    rng = np.random.default_rng(0)
    damp = np.exp(-np.array(RATES["moderate"]))
    assert rough_convolution._filter_constants(damp.tobytes())[0] == 16
    for n in (100, 1024):
        xi = rng.standard_normal((n, damp.size))
        first = mode_filter(damp, xi)
        assert np.array_equal(mode_filter(damp.copy(), xi.copy()), first)
    bound = rough_convolution._FILTER_CACHE
    for rate in np.linspace(0.1, 5.0, 2 * bound):
        mode_filter(np.exp(-rate * np.arange(1.0, 4.0)), np.ones((40, 3)))
        assert rough_convolution._filter_constants.cache_info().currsize <= bound
    assert np.array_equal(mode_filter(damp, xi), first)


@pytest.mark.parametrize("n, t_idx", [(256, 64), (256, 128), (256, 256),
                                      (1000, 64), (1000, 512), (1024, 64),
                                      (1024, 512), (1024, 1024)])
def test_level_sum_at_stride_1_is_the_convolution_bitwise(neumann_scale, n,
                                                          t_idx):
    # the level sums run on the convolution's own scan, so the finest
    # partition of [0, t] reads the convolution at t bit for bit, with the
    # rough and the Young germ and with the geometric and an explicit lift
    rng = np.random.default_rng(n + t_idx)
    base = sample_fbm(0.45, n, 1.0, seed=n)
    y, yp = rng.standard_normal((2, n + 1, neumann_scale.K))
    bracket = np.concatenate(([0.0], 1e-2 * np.cumsum(rng.standard_normal(n))))
    level = t_idx.bit_length() - 1
    for gamma, convolve in ((0.40, rough_convolve), (0.77, young_convolve)):
        for g in (None, bracket):
            D = RoughDriver(base.times, base.X, gamma, g=g)
            P = ControlledPath(D.times, y, yp, -0.3, gamma, neumann_scale)
            assert np.array_equal(level_sum(P, D, t_idx, level),
                                  convolve(P, D).y[t_idx])


def test_log2_slope_is_the_least_squares_line():
    rng = np.random.default_rng(2)
    x = np.arange(4, 11)
    y = 2.0 ** (-0.7 * x + 0.1 * rng.standard_normal(x.size))
    expected = np.polyfit(x, np.log2(y), 1)[0]
    assert abs(log2_slope(x, y) - expected) <= 1e-12
    # zeros are floored, not turned into -inf
    assert np.isfinite(log2_slope([1, 2, 3], [1.0, 0.0, 0.5]))


def test_cocycle_study_mean_is_the_geometric_mean(monkeypatch, neumann_scale):
    defects = np.random.default_rng(4).uniform(1e-6, 1e-3, (3, 2))
    defects[1, 0] = 0.0  # floored at 1e-300 as before
    feed = iter(defects.ravel())
    monkeypatch.setattr(studies, "cocycle_defect", lambda *a: next(feed))
    F = ConstantBoundary(0.0, 0.0, neumann_scale.eps - 1.0, 2.0)
    y0 = np.zeros(neumann_scale.K)
    # t = tau = 0.25 span 8 steps at n = 32, which both resolutions divide
    st = studies.cocycle_study(neumann_scale, F, y0, H=0.5, master_n=32, T=1.0,
                               gamma=0.40, seeds=range(3), resolutions=(4, 8),
                               t=0.25, tau=0.25)
    expected = stats.gmean(np.maximum(defects, 1e-300), axis=0)
    assert np.allclose(st.mean_defects, expected, rtol=1e-14, atol=0.0)
    assert np.isclose(st.final_ratio, expected[0] / expected[1], rtol=1e-14)
