import numpy as np
import pytest

from roughbound import smoothing_bound, smoothing_constants
from roughbound.solver import drift_convolve

from conftest import apply_semigroup, fractional_power


def test_time_zero_is_identity(neumann_scale):
    v = neumann_scale.vector(np.arange(16.0), 0.3)
    assert apply_semigroup(v, 0.0) is v


def test_eigenvector_damping(neumann_scale):
    e1 = neumann_scale.vector(np.eye(16)[1], 0.0)
    out = apply_semigroup(e1, 1.0)
    assert out.coeffs[1] == pytest.approx(np.exp(-(1 + np.pi ** 2)), rel=1e-14)
    assert out.alpha == e1.alpha


def test_negative_time_rejected(neumann_scale):
    with pytest.raises(ValueError):
        apply_semigroup(neumann_scale.vector(np.ones(16), 0.0), -0.1)


def test_semigroup_law(neumann_scale):
    rng = np.random.default_rng(1)
    v = neumann_scale.vector(rng.standard_normal(16), 0.0)
    a = apply_semigroup(apply_semigroup(v, 0.3), 0.45)
    b = apply_semigroup(v, 0.75)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(b.coeffs) + 1e-30)


def test_smoothing_constants_sigma_grid(neumann_scale):
    t_grid = np.logspace(-4, 0, 120)
    for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = smoothing_constants(neumann_scale, sigma, t_grid)
        assert rep.measured_smoothing <= rep.smoothing_bound * (1 + 1e-12)
        assert rep.measured_continuity <= 1 + 1e-12


def test_sigma_one_supremum_attained(neumann_scale):
    # sup_x x e^{-x} = 1/e at x = 1; mode mu_0 = 1 with t = 1 hits it exactly.
    rep = smoothing_constants(neumann_scale, 1.0, np.array([0.5, 1.0, 2.0]))
    assert rep.measured_smoothing == pytest.approx(1 / np.e, rel=1e-12)
    assert smoothing_bound(1.0) == pytest.approx(1 / np.e, rel=1e-15)


def test_one_minus_exp_below_linear(neumann_scale):
    t = np.logspace(-6, 1, 50)[:, None]
    x = neumann_scale.mu[None, :] * t
    assert np.all(-np.expm1(-x) <= x)


def test_vector_level_bounds(neumann_scale):
    rng = np.random.default_rng(5)
    v = neumann_scale.vector(rng.standard_normal(16), 0.0)
    for sigma in (0.25, 0.5, 1.0):
        for t in (1e-3, 0.05, 0.7):
            sv = apply_semigroup(v, t)
            lhs = sv.norm(v.alpha + sigma)
            assert lhs <= smoothing_bound(sigma) * t ** (-sigma) * v.norm(v.alpha) * (1 + 1e-12)
            dv = sv - v
            assert dv.norm(v.alpha) <= t ** sigma * v.norm(v.alpha + sigma) * (1 + 1e-12)


def test_commutes_with_fractional_power(neumann_scale):
    rng = np.random.default_rng(8)
    v = neumann_scale.vector(rng.standard_normal(16), 0.5)
    a = fractional_power(apply_semigroup(v, 0.2), 0.6)
    b = apply_semigroup(fractional_power(v, 0.6), 0.2)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(a.coeffs) + 1e-30)


def test_drift_kernel_closed_form_and_quadrature(neumann_scale):
    # int_0^t e^{-mu_1 (t-r)} dr = (1 - e^{-mu_1 t}) / mu_1; the exponential
    # trapezoid is exact for a constant integrand, and a composite-trapezoid
    # quadrature oracle on a fine grid agrees to its own O(h^2) accuracy.
    n = 256
    times = np.linspace(0.0, 1.0, n + 1)
    rows = np.tile(np.eye(16)[1], (n + 1, 1))
    out = drift_convolve(neumann_scale, times, rows)
    mu1 = neumann_scale.mu[1]
    exact = (1 - np.exp(-mu1 * times)) / mu1
    assert np.max(np.abs(out[:, 1] - exact)) <= 1e-13

    fine = np.linspace(0.0, 1.0, 20001)
    quad = np.trapezoid(np.exp(-mu1 * (1.0 - fine)), fine)
    assert out[-1, 1] == pytest.approx(quad, abs=5e-8)


@pytest.mark.parametrize("sigma, t_grid", [
    (-0.1, [0.5]), (1.1, [0.5]), (np.nan, [0.5]), (0.5, [0.5, 0.0]),
    (0.5, [-0.1, 0.5]), (0.5, [np.nan, 0.1]), (0.5, [np.inf])])
def test_smoothing_constants_reject_sigma_outside_0_1_and_times_not_positive(
        neumann_scale, sigma, t_grid):
    with pytest.raises(ValueError):
        smoothing_constants(neumann_scale, sigma, t_grid)
