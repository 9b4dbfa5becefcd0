import numpy as np
import pytest

from roughbound import (BOUNDARY, BoundaryVector, ConfigError, ConstantBoundary,
                        ControlledPath, GridMismatch, LinearTrace, RoughDriver,
                        ScaleIndexError, SquashedTrace, constant_path, crp_norm,
                        default_trace_weights, diffusion_rows, lift_extrapolate,
                        neumann_map, rho, sample_fbm)
from roughbound.controlled_path import crp_distance, path_seminorm
from roughbound.solver import stability_distance

from conftest import (brute_force_crp_norm, brute_force_holder,
                      brute_force_remainder, compose_smooth,
                      diffusion_derivative_rows,
                      generator_coefficients, holder_seminorm, lift_test_scale,
                      phi_second_bound, remainder, remainder_seminorm, scaled,
                      squashed_d2value)


def _squashed(scale, gain=0.8, amp=1.0, bias=(0.3, -0.2), delta2=2.0):
    w0, w1 = default_trace_weights(scale, gain)
    return SquashedTrace(w0, w1, amp, scale.eps - 1.0, delta2, bias=bias)


def _anchor_path(scale, F, y0, D):
    g0 = diffusion_rows(F, scale, np.asarray(y0)[None, :])[0]
    rows = np.asarray(y0)[None, :] + np.outer(D.X, g0)
    return ControlledPath(D.times, rows, np.tile(g0, (D.n + 1, 1)),
                          scale.eps - 1.0, D.gamma, scale)


def test_crp_norm_constant_path(neumann_scale, driver_small):
    c = np.arange(1.0, 17.0)
    p = constant_path(driver_small.times, c, np.zeros(16), -0.3, 0.40,
                      neumann_scale)
    assert crp_norm(p, driver_small) == pytest.approx(
        float(neumann_scale.norm(c, -0.3)), rel=1e-14)


def test_crp_norm_exact_controlled(neumann_scale, driver_small):
    # y = v X_t with y' = v: zero remainder and constant derivative, so the
    # norm collapses to sup |v X|_alpha + |v|_{alpha-gamma}.
    v = np.eye(16)[2] * 1.7
    n = driver_small.n
    y = np.outer(driver_small.X, v)
    yp = np.tile(v, (n + 1, 1))
    p = ControlledPath(driver_small.times, y, yp, -0.3, 0.40, neumann_scale)
    expected = (np.max(np.abs(driver_small.X)) * neumann_scale.norm(v, -0.3)
                + neumann_scale.norm(v, -0.7))
    assert crp_norm(p, driver_small) == pytest.approx(float(expected), rel=1e-12)


def test_crp_norm_matches_brute_force(neumann_scale):
    D = sample_fbm(0.45, 32, 1.0, seed=13, gamma=0.40)
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    p = lift_extrapolate(F, _anchor_path(neumann_scale, F, y0, D), neumann_scale)
    assert crp_norm(p, D) == pytest.approx(brute_force_crp_norm(p, D), rel=1e-12)


@pytest.mark.parametrize("space", ["interior", "boundary"])
def test_seminorms_match_brute_force(neumann_scale, space):
    # the boundary space is unweighted: every index gives the Euclidean norm
    D = sample_fbm(0.45, 24, 1.0, seed=5, gamma=0.40)
    sp, k = (neumann_scale, 16) if space == "interior" else (BOUNDARY, 2)
    rng = np.random.default_rng(8)
    p = ControlledPath(D.times, rng.standard_normal((25, k)),
                       rng.standard_normal((25, k)), -0.3, 0.40, sp)

    def nrm(alpha):
        return lambda row: float(sp.norm(row, alpha))

    assert path_seminorm(sp, p.times, p.y, -0.5, 0.40) == pytest.approx(
        brute_force_holder(p.times, p.y, nrm(-0.5), 0.40), rel=1e-12)
    assert remainder_seminorm(sp, p.times, p.y, p.y_prime, D.X, -1.1, 0.80) == (
        pytest.approx(brute_force_remainder(p.times, p.y, p.y_prime, D.X,
                                            nrm(-1.1), 0.80), rel=1e-12))
    assert crp_norm(p, D) == pytest.approx(brute_force_crp_norm(p, D), rel=1e-12)


def test_crp_norm_grid_mismatch(neumann_scale, driver_small):
    other = sample_fbm(0.45, 128, 1.0, seed=7, gamma=0.40)
    p = constant_path(other.times, np.ones(16), np.zeros(16), -0.3, 0.40,
                      neumann_scale)
    with pytest.raises(GridMismatch):
        crp_norm(p, driver_small)
    # a strided distance takes the paths' own driver, not the strided one
    with pytest.raises(GridMismatch):
        crp_distance(p, scaled(p, 2.0), other.restricted(2), stride=2)
    assert crp_distance(p, scaled(p, 2.0), other, stride=2) > 0


@pytest.mark.parametrize("stride", [1, 2, 8])
def test_one_shared_driver_takes_one_leg(neumann_scale, driver_small, stride):
    # over one driver (E is D) the remainder difference takes one leg,
    # (y'_Q - y'_P) over X; a copy of D is another driver and takes two
    rng = np.random.default_rng(stride)
    D = driver_small.restricted(stride)
    P, Q = (ControlledPath(D.times, rng.standard_normal((D.n + 1, 16)),
                           rng.standard_normal((D.n + 1, 16)), -0.3, 0.40,
                           neumann_scale) for _ in range(2))
    E = RoughDriver(D.times.copy(), D.X.copy(), D.gamma, D.H)
    one_leg = stability_distance(P, Q, D, D, 0.35)
    assert one_leg == pytest.approx(stability_distance(P, Q, D, E, 0.35),
                                    rel=1e-13, abs=0.0)
    # crp_distance on the paths' own driver is bitwise the norm of the strided
    # difference path over the strided driver
    P1, P2 = (ControlledPath(driver_small.times, rng.standard_normal((257, 16)),
                             rng.standard_normal((257, 16)), -0.3, 0.40,
                             neumann_scale) for _ in range(2))
    assert (crp_distance(P1, P2, driver_small, stride)
            == crp_norm((P1 - P2).restricted(stride), D))


DIFFERENCE_ENTRIES = {
    "crp_distance": lambda P, Q, D: crp_distance(P, Q, D),
    "stability_distance": lambda P, Q, D: stability_distance(P, Q, D, D, 0.35),
    "path subtraction": lambda P, Q, D: P - Q,
}


@pytest.mark.parametrize("mismatch", ["K", "alpha", "gamma"])
@pytest.mark.parametrize("entry", sorted(DIFFERENCE_ENTRIES))
def test_differences_need_one_space_and_index(entry, mismatch, neumann_scale,
                                              driver_small):
    # as for spectral vectors, a difference needs the same space object and
    # the same indices: K = 8 rows do not broadcast against K = 16 ones, and
    # a second path at another index would be measured at the first one's
    def path(space=neumann_scale, alpha=-0.3, gamma=0.40):
        rows = np.random.default_rng(1).standard_normal((257, space.K))
        return ControlledPath(driver_small.times, rows, rows, alpha, gamma, space)

    other = {"K": path(space=lift_test_scale("neumann", 8)),
             "alpha": path(alpha=0.0), "gamma": path(gamma=0.38)}[mismatch]
    DIFFERENCE_ENTRIES[entry](path(), path(), driver_small)   # accepted
    with pytest.raises(ConfigError, match="different spaces or indices"):
        DIFFERENCE_ENTRIES[entry](path(), other, driver_small)


def test_remainder_reconstruction(neumann_scale, driver_small):
    rng = np.random.default_rng(3)
    n = driver_small.n
    y = rng.standard_normal((n + 1, 16))
    yp = rng.standard_normal((n + 1, 16))
    p = ControlledPath(driver_small.times, y, yp, -0.3, 0.40, neumann_scale)
    for (i, j) in ((0, 1), (5, 99), (30, 256)):
        rec = yp[i] * (driver_small.X[j] - driver_small.X[i]) + remainder(p, i, j, driver_small)
        assert np.max(np.abs(y[j] - y[i] - rec)) <= 1e-12


def test_holder_consistency_bound(neumann_scale):
    # [y]_{gamma, alpha-theta} <= ||y'||_{inf, alpha-theta} [X]_gamma
    #                            + [R]_{gamma, alpha-theta},  theta in {g, 2g}
    from roughbound.controlled_path import sup_norm
    D = sample_fbm(0.45, 64, 1.0, seed=21, gamma=0.40)
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    p = lift_extrapolate(F, _anchor_path(neumann_scale, F, y0, D), neumann_scale)
    g = p.gamma
    for theta in (g, 2 * g):
        idx = p.alpha - theta
        lhs = path_seminorm(p.space, p.times, p.y, idx, g)
        rhs = (sup_norm(p.space, p.y_prime, idx) * holder_seminorm(D, g)
               + remainder_seminorm(p.space, p.times, p.y, p.y_prime, D.X, idx, g))
        assert lhs <= rhs * (1 + 1e-12)


def test_compose_linear_degenerates_to_matrix_action(neumann_scale, driver_small):
    w0, w1 = default_trace_weights(neumann_scale, 1.0)
    F = LinearTrace(w0, w1, -0.3, 2.0)
    rng = np.random.default_rng(7)
    n = driver_small.n
    y = rng.standard_normal((n + 1, 16))
    yp = rng.standard_normal((n + 1, 16))
    p = ControlledPath(driver_small.times, y, yp, -0.3, 0.40, neumann_scale)
    q = compose_smooth(F, p)
    assert q.alpha == pytest.approx(-0.3 + 2.0)
    assert np.allclose(q.y, y @ F.w)
    assert np.allclose(q.y_prime, yp @ F.w)
    for (i, j) in ((0, 40), (10, 200)):
        lhs = remainder(q, i, j, driver_small)
        rhs = remainder(p, i, j, driver_small) @ F.w
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_compose_linear_commutes_with_scaling(neumann_scale, driver_small):
    w0, w1 = default_trace_weights(neumann_scale, 1.0)
    F = LinearTrace(w0, w1, -0.3, 2.0)
    rng = np.random.default_rng(17)
    n = driver_small.n
    p = ControlledPath(driver_small.times, rng.standard_normal((n + 1, 16)),
                       rng.standard_normal((n + 1, 16)), -0.3, 0.40,
                       neumann_scale)
    a = compose_smooth(F, scaled(p, 2.5))
    b = scaled(compose_smooth(F, p), 2.5)
    assert np.max(np.abs(a.y - b.y)) <= 1e-12
    assert np.max(np.abs(a.y_prime - b.y_prime)) <= 1e-12


def test_compose_constant_zero_remainder(neumann_scale, driver_small):
    F = ConstantBoundary(0.7, -0.2, -0.3, 2.0)
    rng = np.random.default_rng(8)
    n = driver_small.n
    p = ControlledPath(driver_small.times, rng.standard_normal((n + 1, 16)),
                       rng.standard_normal((n + 1, 16)), -0.3, 0.40,
                       neumann_scale)
    q = compose_smooth(F, p)
    assert np.ptp(q.y, axis=0).max() == 0.0
    assert np.all(q.y_prime == 0.0)
    assert np.max(np.abs(remainder(q, 3, 77, driver_small))) == 0.0


def test_compose_index_contract(neumann_scale, driver_small):
    F = ConstantBoundary(0.7, -0.2, -0.25, 2.0)
    p = constant_path(driver_small.times, np.ones(16), np.zeros(16), -0.3,
                      0.40, neumann_scale)
    with pytest.raises(IndexError):
        compose_smooth(F, p)
    with pytest.raises(ScaleIndexError):
        compose_smooth(F, p)


def test_squashed_taylor_defect(neumann_scale):
    # |F(y_t) - F(y_s) - DF(y_s) y_{t,s}| <= 1/2 sup|phi''| (|w| |y_{t,s}|)^2
    D = sample_fbm(0.45, 64, 1.0, seed=30, gamma=0.40)
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    p = _anchor_path(neumann_scale, F, y0, D)
    vals = F.value(p.y)
    wnorms = np.linalg.norm(F.w, axis=0)
    for i in range(0, 64, 7):
        for j in range(i + 1, 65, 11):
            dy = p.y[j] - p.y[i]
            defect = np.abs(vals[j] - vals[i] - F.dvalue(p.y[i][None, :], dy[None, :])[0])
            bound = 0.5 * phi_second_bound(F) * (wnorms * np.linalg.norm(dy)) ** 2
            assert np.all(defect <= bound * (1 + 1e-9))


def test_squashed_derivatives_match_finite_differences(neumann_scale):
    F = _squashed(neumann_scale)
    rng = np.random.default_rng(5)
    y = rng.standard_normal((1, 16))
    h = rng.standard_normal((1, 16))
    g = rng.standard_normal((1, 16))
    eps = 1e-6
    fd1 = (F.value(y + eps * h) - F.value(y - eps * h)) / (2 * eps)
    assert np.max(np.abs(fd1 - F.dvalue(y, h))) <= 1e-8
    fd2 = (F.dvalue(y + eps * g, h) - F.dvalue(y - eps * g, h)) / (2 * eps)
    assert np.max(np.abs(fd2 - squashed_d2value(F, y, h, g))) <= 1e-7


def _unit_squashed(amp):
    # w picks coordinates 0 and 1, so u = (y[:, :2] + bias) / amp
    return SquashedTrace(np.eye(16)[0], np.eye(16)[1], amp, -0.3, 2.0,
                         bias=(0.3, -0.2))


def test_squashed_derivatives_finite_at_saturation():
    F = _unit_squashed(2.0)
    y = np.zeros((4, 16))
    y[:, 0] = [2e3, -2e3, 1.5e3, 800.0]
    y[:, 1] = [-2e3, 2e3, 1e4, -1e5]
    h = np.ones((4, 16))
    with np.errstate(all="raise"):
        d1 = F.dvalue(y, h)
        d2 = squashed_d2value(F, y, h, h)
    assert np.all(np.isfinite(d1)) and np.all(np.abs(d1) <= 1e-300)
    assert np.all(np.isfinite(d2)) and np.all(np.abs(d2) <= 1e-300)


def test_squashed_derivatives_match_the_cosh_formula():
    amp = 1.5
    F = _unit_squashed(amp)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((64, 16))
    y[:, :2] = rng.uniform(-6.0, 6.0, (64, 2))
    h = rng.standard_normal((64, 16))
    g = rng.standard_normal((64, 16))
    u = (y[:, :2] + F.bias) / amp
    sech2 = 1.0 / np.cosh(u) ** 2
    np.testing.assert_allclose(F.dvalue(y, h), sech2 * h[:, :2],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(squashed_d2value(F, y, h, g),
                               (-2.0 / amp) * np.tanh(u) * sech2
                               * h[:, :2] * g[:, :2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "squashed", "constant"])
def test_lift_extrapolate_is_the_two_diffusion_rows_bitwise(neumann_scale, kind):
    # value_and_dvalue shares the tanh of the squashed map; every map must
    # give what value and dvalue give one at a time
    w0, w1 = default_trace_weights(neumann_scale, 0.8)
    alpha = neumann_scale.eps - 1.0
    F = {"linear": LinearTrace(w0, w1, alpha, 2.0),
         "squashed": _squashed(neumann_scale),
         "constant": ConstantBoundary(0.3, -0.7, alpha, 2.0)}[kind]
    D = sample_fbm(0.45, 64, 1.0, seed=5)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    P = _anchor_path(neumann_scale, F, y0, D)
    lifted = lift_extrapolate(F, P, neumann_scale)
    assert np.array_equal(lifted.y, diffusion_rows(F, neumann_scale, P.y))
    assert np.array_equal(lifted.y_prime, diffusion_derivative_rows(
        F, neumann_scale, P.y, P.y_prime))


def test_lift_extrapolate_zero_map(neumann_scale, driver_small):
    F = ConstantBoundary(0.0, 0.0, -0.3, 2.0)
    p = constant_path(driver_small.times, np.ones(16), np.zeros(16), -0.3,
                      0.40, neumann_scale)
    out = lift_extrapolate(F, p, neumann_scale)
    assert np.all(out.y == 0.0) and np.all(out.y_prime == 0.0)


def test_lift_extrapolate_single_mode_hand_chain(neumann_scale, driver_small):
    # linear trace -> Neumann lift -> extrapolated generator, spot-checked
    # against the per-mode closed-form coefficient chain
    w0, w1 = default_trace_weights(neumann_scale, 1.0)
    F = LinearTrace(w0, w1, -0.3, 2.0)
    rng = np.random.default_rng(11)
    n = driver_small.n
    y = rng.standard_normal((n + 1, 16))
    yp = rng.standard_normal((n + 1, 16))
    p = ControlledPath(driver_small.times, y, yp, -0.3, 0.40, neumann_scale)
    out = lift_extrapolate(F, p, neumann_scale)

    i, k = 37, 5
    boundary = np.array([y[i] @ w0, y[i] @ w1])
    lift_row = neumann_scale.lift[k]
    hand = -neumann_scale.mu[k] * (lift_row @ boundary)
    assert out.y[i, k] == pytest.approx(hand, rel=1e-13)

    # index bookkeeping: path at -eta, derivative one gamma lower, i.e. -sigma
    assert out.alpha == pytest.approx(-neumann_scale.eta)
    assert out.alpha - out.gamma == pytest.approx(-neumann_scale.sigma)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("K", [8, 16, 32])
def test_diffusion_rows_are_the_generator_applied_to_the_lift(bc, K):
    # one product with generator_lift against the two-step route N, then -mu
    sc = lift_test_scale(bc, K)
    F = _squashed(sc)
    rng = np.random.default_rng(K)
    y, h = rng.standard_normal((2, 65, K))
    for got, boundary in ((diffusion_rows(F, sc, y), F.value(y)),
                          (diffusion_derivative_rows(F, sc, y, h), F.dvalue(y, h))):
        ref = generator_coefficients(sc, boundary @ sc.lift.T)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_composition_stability_constant_stable_under_refinement(neumann_scale):
    # two controlled inputs over one driver: the composed outputs' distance is
    # controlled linearly by the inputs' distance (fitted constant, stable in n)
    F = _squashed(neumann_scale)
    y0 = neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs
    consts = []
    for n in (64, 128):
        D = sample_fbm(0.45, n, 1.0, seed=3, gamma=0.40)
        p = _anchor_path(neumann_scale, F, y0, D)
        q = _anchor_path(neumann_scale, F, y0 * 1.05, D)
        zp = compose_smooth(F, p)
        zq = compose_smooth(F, q)
        num = crp_distance(zp, zq, D)
        den = ((1 + rho(D)) ** 2
               * (1 + crp_norm(p, D) + crp_norm(q, D)) ** 2
               * crp_distance(p, q, D))
        consts.append(num / den)
    assert consts[0] > 0
    assert 0.5 <= consts[1] / consts[0] <= 2.0
    assert max(consts) <= 1.0  # frozen from measurement; the bound's C is small here
