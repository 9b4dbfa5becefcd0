"""An explicit non-geometric lift through every driver consumer, against XX.

The driver stores the lift as a bracket path g; these oracles read the dense
(n+1, n+1) matrix XX that `lift_explicit` was given instead.
"""

import numpy as np
import pytest

from roughbound import (ControlledPath, level_sum, lift_explicit,
                        remainder_certificate, rho, rough_convolve, sample_fbm,
                        shift)

from conftest import (dense_level_sum, dense_lift, dense_remainder_sups,
                      dense_rough_convolve, xx_lag)

N = 64


def _ito(D):
    return -0.5 * D.times


def _random(D):
    walk = np.cumsum(np.random.default_rng(8).standard_normal(D.n)) / np.sqrt(D.n)
    return np.concatenate(([0.0], walk)) - 0.5 * D.times


@pytest.fixture(scope="module", params=[_ito, _random], ids=["ito", "random"])
def lifted(request):
    base = sample_fbm(0.45, N, 1.0, seed=3, gamma=0.40)
    XX = dense_lift(base, request.param(base))
    return lift_explicit(base.times, base.X, XX, base.gamma), XX


@pytest.fixture(scope="module")
def integrand(neumann_scale):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, N + 1)
    return ControlledPath(times, rng.standard_normal((N + 1, 16)),
                          rng.standard_normal((N + 1, 16)), -0.3, 0.40,
                          neumann_scale)


def _upper(D, XX):
    """Every XX_{t,s}, s <= t, from the driver and from the matrix."""
    s, t = np.triu_indices(D.n + 1)
    return D.xx_entry(s, t), XX[s, t]


def test_lift_reads_the_bracket_path(lifted):
    D, XX = lifted
    assert D.lift == "explicit"
    assert sample_fbm(0.45, N, 1.0, seed=3).lift == "geometric"
    np.testing.assert_allclose(*_upper(D, XX), rtol=0, atol=1e-14)
    for lag in (1, 7, N):
        np.testing.assert_allclose(xx_lag(D, lag), np.diagonal(XX, lag),
                                   rtol=0, atol=1e-14)


def test_restricted_matches_the_sliced_matrix(lifted):
    D, XX = lifted
    for stride, stop in ((4, None), (2, 40)):
        sel = np.arange(0, (N if stop is None else stop) + 1, stride)
        np.testing.assert_allclose(*_upper(D.restricted(stride, stop),
                                           XX[np.ix_(sel, sel)]),
                                   rtol=0, atol=1e-14)


def test_shift_matches_the_sliced_matrix_and_the_cocycle(lifted):
    D, XX = lifted
    i = 16
    theta = shift(D, D.times[i])
    np.testing.assert_allclose(*_upper(theta, XX[i:, i:]), rtol=0, atol=1e-14)
    # second-order cocycle identity XX_{s+t,s}(w) = XX_{t,0}(theta_s w)
    for j in (3, 20, 48):
        assert theta.xx_entry(0, j) == pytest.approx(D.xx_entry(i, i + j),
                                                     abs=1e-14)
    twice = shift(shift(D, D.times[8]), D.times[i] - D.times[8])
    np.testing.assert_allclose(twice.g, theta.g, rtol=0, atol=1e-14)


def test_rough_convolve_matches_the_dense_recurrence(lifted, integrand):
    D, XX = lifted
    z = rough_convolve(integrand, D)
    oracle = dense_rough_convolve(integrand, D.X, XX)
    assert np.max(np.abs(z.y - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    geometric = rough_convolve(integrand, sample_fbm(0.45, N, 1.0, seed=3,
                                                     gamma=0.40))
    assert np.max(np.abs(z.y - geometric.y)) > 1e-3   # the bracket term counts


@pytest.mark.parametrize("t_idx, level, s_idx, gamma", [
    pytest.param(64, 3, 0, 0.40, id="64-3-0"),
    pytest.param(60, 2, 20, 0.40, id="60-2-20"),
    pytest.param(64, 6, 0, 0.40, id="64-6-0"),
    pytest.param(60, 2, 20, 0.77, id="60-2-20-young")])
def test_level_sum_matches_the_dense_partition(lifted, integrand, t_idx,
                                               level, s_idx, gamma):
    # above gamma = 1/2 the Young germ drops y' XX: the oracle reads XX = 0;
    # a partition of [t_s, t_t] is one of [0, t_t - t_s] on the shifted driver
    D, XX = lifted
    P = ControlledPath(integrand.times, integrand.y, integrand.y_prime,
                       integrand.alpha, gamma, integrand.space)
    Ds = shift(D, D.times[s_idx])
    Ps = ControlledPath(Ds.times, P.y[s_idx:], P.y_prime[s_idx:], P.alpha,
                        gamma, P.space)
    got = level_sum(Ps, Ds, t_idx - s_idx, level)
    oracle = dense_level_sum(P, D.X, XX if gamma <= 0.5 else 0 * XX, t_idx,
                             level, s_idx)
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("stride", [1, 5])
def test_remainder_certificate_matches_the_dense_pairs(lifted, integrand,
                                                       stride):
    D, XX = lifted
    Z = rough_convolve(integrand, D)
    rep = remainder_certificate(integrand, D, Z, stride=stride)
    s, t = np.triu_indices(N + 1, 1)
    dt = D.times[t] - D.times[s]
    g = D.gamma
    rho_dense = (np.max(np.abs(D.X[t] - D.X[s]) / dt ** g)
                 + np.max(np.abs(XX[s, t]) / dt ** (2 * g)))
    assert rep.rho_gamma == pytest.approx(rho_dense, rel=1e-12)
    assert rho(D) == rep.rho_gamma
    oracle = dense_remainder_sups(integrand, Z, D.X, XX, rep.betas, stride)
    np.testing.assert_allclose(
        np.array(rep.sup_ratios) * rep.rho_gamma * rep.input_norm, oracle,
        rtol=1e-9)
