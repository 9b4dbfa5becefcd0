import numpy as np
import pytest
from scipy import integrate

from roughbound import (BoundaryVector, ConfigError, ControlledPath,
                        ScaleConfig, build_scale, crp_norm, dirichlet_map,
                        neumann_map)
from roughbound.spectral_scale import BOUNDARY
from roughbound.controlled_path import constant_path

from conftest import (dirichlet_profile, lift_controlled, lift_operator_norm,
                      neumann_profile, remainder)


def quad_coefficients(profile, scale):
    """Quadrature oracle: project a profile onto the truncated eigenbasis."""
    out = np.empty(scale.K)
    for i in range(scale.K):
        def f(x, i=i):
            return profile(np.array([x]))[0] * scale.basis(np.array([x]))[0, i]
        out[i], _ = integrate.quad(f, 0.0, 1.0, limit=200, epsabs=1e-12)
    return out


def test_zero_data_maps_to_zero(neumann_scale, dirichlet_scale):
    z = BoundaryVector(0.0, 0.0)
    assert np.all(neumann_map(z, neumann_scale).coeffs == 0)
    assert np.all(dirichlet_map(z, dirichlet_scale).coeffs == 0)


def test_neumann_closed_form_coefficients(neumann_scale):
    g = BoundaryVector(0.0, 1.0)
    ng = neumann_map(g, neumann_scale)
    k = neumann_scale.wavenumbers
    expected = np.where(k == 0, 1.0, np.sqrt(2.0) * (-1.0) ** k / neumann_scale.mu)
    assert np.max(np.abs(ng.coeffs - expected)) <= 1e-14
    assert ng.alpha == pytest.approx(neumann_scale.eps)


def test_neumann_profile_and_quadrature_oracle(neumann_scale):
    g = BoundaryVector(0.0, 1.0)
    xs = np.linspace(0, 1, 7)
    assert np.allclose(neumann_profile(g, neumann_scale, xs),
                       np.cosh(xs) / np.sinh(1.0), atol=1e-14)
    oracle = quad_coefficients(lambda x: neumann_profile(g, neumann_scale, x),
                               neumann_scale)
    assert np.max(np.abs(neumann_map(g, neumann_scale).coeffs - oracle)) <= 1e-8


def test_neumann_general_coefficients_match_quadrature():
    sc = build_scale(ScaleConfig(a=1.7, b=-2.3, K=12, gamma=0.40))
    g = BoundaryVector(0.8, -0.4)
    oracle = quad_coefficients(lambda x: neumann_profile(g, sc, x), sc)
    assert np.max(np.abs(neumann_map(g, sc).coeffs - oracle)) <= 1e-8


def test_neumann_profile_residual_and_boundary_data():
    sc = build_scale(ScaleConfig(a=1.7, b=-2.3, K=8, gamma=0.40))
    g = BoundaryVector(0.8, -0.4)
    a, b = sc.cfg.a, sc.cfg.b

    # independent extended-precision evaluation of the same boundary problem,
    # differentiated by finite differences (double precision would leave
    # ~2e-8 cancellation noise in the second difference)
    kappa = np.sqrt(np.longdouble(-b) / np.longdouble(a))
    def u(p):
        p = np.asarray(p, dtype=np.longdouble)
        return ((g.g0 * np.cosh(kappa * (1 - p)) + g.g1 * np.cosh(kappa * p))
                / (np.longdouble(a) * kappa * np.sinh(kappa)))

    assert np.allclose(np.asarray(u(np.linspace(0, 1, 11)), dtype=float),
                       neumann_profile(g, sc, np.linspace(0, 1, 11)), atol=1e-14)
    h = np.longdouble(1e-4)
    x = np.linspace(2e-4, 1 - 2e-4, 101).astype(np.longdouble)
    upp = (u(x + h) - 2 * u(x) + u(x - h)) / h ** 2
    residual = float(np.max(np.abs(a * upp + b * u(x))))
    assert residual <= 1e-8 * max(1.0, float(np.max(np.abs(u(x)))))
    du0 = float((u(np.array([1e-6])) - u(np.array([0.0])))[0] / np.longdouble(1e-6))
    du1 = float((u(np.array([1.0])) - u(np.array([1.0 - 1e-6])))[0] / np.longdouble(1e-6))
    assert -a * du0 == pytest.approx(g.g0, abs=1e-5)
    assert a * du1 == pytest.approx(g.g1, abs=1e-5)


def test_dirichlet_closed_form_and_bvp_oracle(dirichlet_scale):
    g = BoundaryVector(0.0, 1.0)
    xs = np.linspace(0, 1, 9)
    assert np.allclose(dirichlet_profile(g, dirichlet_scale, xs),
                       np.sinh(xs) / np.sinh(1.0), atol=1e-14)

    # independent finite-difference BVP solve on 10^4 interior points
    m = 10_000
    grid = np.linspace(0.0, 1.0, m + 2)
    h = grid[1] - grid[0]
    a, b = dirichlet_scale.cfg.a, dirichlet_scale.cfg.b
    main = np.full(m, -2.0 * a / h ** 2 + b)
    off = np.full(m - 1, a / h ** 2)
    rhs = np.zeros(m)
    rhs[-1] -= a / h ** 2 * 1.0
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off
    from scipy.linalg import solve_banded
    u_fd = solve_banded((1, 1), ab, rhs)
    assert np.max(np.abs(u_fd - dirichlet_profile(g, dirichlet_scale, grid[1:-1]))) <= 1e-7

    oracle = quad_coefficients(lambda x: dirichlet_profile(g, dirichlet_scale, x),
                               dirichlet_scale)
    got = dirichlet_map(g, dirichlet_scale).coeffs
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_dirichlet_trace_values(dirichlet_scale):
    g = BoundaryVector(-0.3, 0.9)
    ends = dirichlet_profile(g, dirichlet_scale, np.array([0.0, 1.0]))
    assert ends[0] == pytest.approx(g.g0, abs=1e-14)
    assert ends[1] == pytest.approx(g.g1, abs=1e-14)


def test_tail_laws():
    # Neumann coefficients decay like mu^{-1}, Dirichlet like mu^{-1/2}:
    # the K -> 4K norm ratios diverge past 3/4 resp. 1/4.
    def neumann_ratio(alpha):
        vals = []
        for K in (64, 256):
            sc = build_scale(ScaleConfig(K=K, gamma=0.40))
            vals.append(float(neumann_map(BoundaryVector(0.0, 1.0), sc).norm(alpha)))
        return vals[1] / vals[0]

    def dirichlet_ratio(alpha):
        vals = []
        for K in (64, 256):
            sc = build_scale(ScaleConfig(K=K, bc="dirichlet", gamma=0.77,
                                         delta=0.005))
            vals.append(float(dirichlet_map(BoundaryVector(0.0, 1.0), sc).norm(alpha)))
        return vals[1] / vals[0]

    assert neumann_ratio(0.70) <= 1.05
    assert neumann_ratio(0.80) >= 1.15
    assert dirichlet_ratio(0.20) <= 1.10
    assert dirichlet_ratio(0.30) >= 1.15


def test_linearity(neumann_scale):
    g = BoundaryVector(0.4, -1.3)
    h = BoundaryVector(-0.7, 0.2)
    s = BoundaryVector(g.g0 + h.g0, g.g1 + h.g1)
    lhs = neumann_map(s, neumann_scale).coeffs
    rhs = neumann_map(g, neumann_scale).coeffs + neumann_map(h, neumann_scale).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_each_map_needs_its_boundary_condition(neumann_scale, dirichlet_scale):
    g = BoundaryVector(1.0, 0.5)
    with pytest.raises(ConfigError):
        neumann_map(g, dirichlet_scale)
    with pytest.raises(ConfigError):
        dirichlet_map(g, neumann_scale)


def test_boundary_vector_guards():
    with pytest.raises(ConfigError):
        BoundaryVector(np.nan, 0.0)
    assert BoundaryVector(3.0, 4.0).norm() == pytest.approx(5.0)


def test_lift_constant_path(neumann_scale, driver_small):
    p = constant_path(driver_small.times, np.array([0.3, -1.1]),
                      np.zeros(2), 2.0, 0.40, BOUNDARY)
    lifted = lift_controlled(p, neumann_scale)
    assert lifted.alpha == pytest.approx(neumann_scale.eps)
    assert np.ptp(lifted.y, axis=0).max() == 0.0
    for (i, j) in ((0, 5), (3, 200)):
        assert np.max(np.abs(remainder(lifted, i, j, driver_small))) == 0.0


def test_lift_exact_gubinelli_derivative(neumann_scale, driver_small):
    # y_t = (0, X_t), y' = (0, 1): the remainder of the lift vanishes exactly.
    n = driver_small.n
    y = np.stack([np.zeros(n + 1), driver_small.X], axis=1)
    yp = np.tile(np.array([0.0, 1.0]), (n + 1, 1))
    p = ControlledPath(driver_small.times, y, yp, 2.0, 0.40, BOUNDARY)
    lifted = lift_controlled(p, neumann_scale)
    for (i, j) in ((0, 10), (17, 201), (100, 256)):
        assert np.max(np.abs(remainder(lifted, i, j, driver_small))) <= 1e-15


def test_lift_bounded_by_operator_norm(neumann_scale, driver_small):
    rng = np.random.default_rng(2)
    n = driver_small.n
    y = rng.standard_normal((n + 1, 2))
    y[0] = 0.0
    yp = rng.standard_normal((n + 1, 2))
    p = ControlledPath(driver_small.times, y, yp, 2.0, 0.40, BOUNDARY)
    lifted = lift_controlled(p, neumann_scale)
    g = 0.40
    eps = neumann_scale.eps
    opn = max(lift_operator_norm(neumann_scale, eps - i * g) for i in range(3))
    assert crp_norm(lifted, driver_small) <= opn * crp_norm(p, driver_small) * (1 + 1e-12)
