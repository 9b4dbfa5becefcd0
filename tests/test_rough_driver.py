import tracemalloc

import numpy as np
import pytest
from scipy import stats

from roughbound import (ChenViolation, ConfigError, ControlledPath,
                        CovarianceNotPD, GridMismatch, RoughDriver, crp_distance,
                        crp_norm, level_sum, lift_explicit,
                        lift_geometric, rho, rough_convolve, rough_metric,
                        sample_fbm, shift, stability_distance, young_convolve)
from roughbound import SpectralVector, rough_driver
from roughbound.cli import cmd_sample
from roughbound.config import parse_config
from roughbound.rough_driver import (CHEN_TOL, _fgn_autocovariance,
                                     _schur_row_blocks, chen_defect_max,
                                     driver_chen_defect_max)

from conftest import (brute_force_holder, brute_force_increment_sup,
                      brute_force_rough_metric, dense_increment_cholesky,
                      holder_seminorm, recompute_increment_sups)


def test_brownian_increments_iid():
    # H = 1/2: increments are i.i.d. with variance T/n.  Fixed seed makes the
    # 3-standard-error bands a deterministic regression check.
    n, paths, T = 8, 10_000, 2.0
    drivers = np.stack([sample_fbm(0.5, n, T, seed=s).X for s in range(paths)])
    inc = np.diff(drivers, axis=1)
    cov = np.cov(inc.T)
    var = T / n
    se_diag = var * np.sqrt(2.0 / (paths - 1))
    se_off = var / np.sqrt(paths)
    for i in range(n):
        for j in range(n):
            tol = 3 * (se_diag if i == j else se_off)
            target = var if i == j else 0.0
            assert abs(cov[i, j] - target) <= tol, (i, j, cov[i, j])


@pytest.mark.parametrize("H", [0.35, 0.45, 0.8])
def test_terminal_variance_matches_hurst(H):
    paths, n, T = 10_000, 16, 1.5
    xT = np.array([sample_fbm(H, n, T, seed=s).X[-1] for s in range(paths)])
    est = np.var(xT, ddof=1)
    target = T ** (2 * H)
    se = target * np.sqrt(2.0 / (paths - 1))
    assert abs(est - target) <= 3 * se


def test_sampling_determinism_bitwise():
    a = sample_fbm(0.45, 128, 1.0, seed=123)
    b = sample_fbm(0.45, 128, 1.0, seed=123)
    assert np.array_equal(a.X, b.X)
    c = sample_fbm(0.45, 128, 1.0, seed=124)
    assert not np.array_equal(a.X, c.X)


def _schur_factor(c):
    """The dense upper factor U, assembled from the Schur row blocks."""
    n = np.size(c)
    U = np.zeros((n, n))
    for k0, R in _schur_row_blocks(c):
        U[k0:k0 + R.shape[0], k0:] = R
    return U


@pytest.mark.parametrize("n", [2, 3, 64, 512])
@pytest.mark.parametrize("H", [0.35, 0.45, 0.5, 0.8])
def test_schur_factor_matches_dense_cholesky(H, n):
    L = dense_increment_cholesky(H, n, 1.0)
    U = _schur_factor(_fgn_autocovariance(H, n, 1.0))
    assert np.array_equal(U, np.triu(U))
    assert np.max(np.abs(U.T - L)) <= 1e-10 * np.max(np.abs(L))


@pytest.mark.parametrize("H, n", [(0.45, 1024), (0.8, 512), (0.35, 3)])
def test_sample_fbm_draws_the_dense_cholesky_path(H, n):
    # same draw per seed as L @ z with the LAPACK factor, up to roundoff
    L = dense_increment_cholesky(H, n, 1.0)
    for seed in (0, 7, 11):
        z = np.random.default_rng(seed).standard_normal(n)
        X = sample_fbm(H, n, 1.0, seed=seed).X
        assert X[0] == 0.0
        np.testing.assert_allclose(X[1:], np.cumsum(L @ z), rtol=0, atol=1e-10)


@pytest.fixture
def cold_sampler(monkeypatch):
    """Sampler with no cached factor and no previous draw."""
    monkeypatch.setattr(rough_driver, "_factor", {})
    monkeypatch.setattr(rough_driver, "_previous_key", None)


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 777])
@pytest.mark.parametrize("H", [0.35, 0.8])
def test_streamed_caching_and_cached_draws_are_bitwise_equal(H, n, cold_sampler):
    streamed = sample_fbm(H, n, 1.0, seed=5).X
    assert not rough_driver._factor              # a first draw keeps nothing
    caching = sample_fbm(H, n, 1.0, seed=5).X    # second in a row: builds U
    assert list(rough_driver._factor) == [(H, n, 1.0)]
    cached = sample_fbm(H, n, 1.0, seed=5).X
    assert np.array_equal(streamed, caching)
    assert np.array_equal(streamed, cached)


def test_first_draw_streams_in_bounded_memory(cold_sampler):
    # the 4096 x 4096 factor would be 128 MiB; the streamed draw needs a
    # 64-row buffer (2 MiB) and O(n) vectors
    tracemalloc.start()
    try:
        sample_fbm(0.45, 4096, 1.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert not rough_driver._factor


def test_cached_factor_holds_the_upper_triangle_only(cold_sampler):
    # at n = 1024 a dense factor alone is 8 MiB; the upper triangle's row
    # blocks are about n(n+1)/2 + 32n doubles (4.3 MiB)
    n = 1024
    sample_fbm(0.45, n, 1.0, seed=1)
    tracemalloc.start()
    try:
        sample_fbm(0.45, n, 1.0, seed=2)     # second in a row: caches
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(rough_driver._factor) == [(0.45, n, 1.0)]
    assert peak < 6 * 2 ** 20, peak


def test_sampler_caches_one_factor(cold_sampler):
    for n in (64, 128):
        for seed in (1, 2):
            sample_fbm(0.45, n, 1.0, seed=seed)
    assert list(rough_driver._factor) == [(0.45, 128, 1.0)]
    # a draw at another key in between streams and leaves the factor in place
    sample_fbm(0.45, 64, 1.0, seed=3)
    sample_fbm(0.45, 128, 1.0, seed=3)
    assert list(rough_driver._factor) == [(0.45, 128, 1.0)]


def test_draws_above_the_cache_cap_stream_in_bounded_memory(cold_sampler,
                                                            monkeypatch):
    # n = 1024 blocks are 4.3 MiB; below a 1 MiB cap a key's repeated draws
    # keep nothing and hold the 64-row buffer (0.5 MiB) and O(n) vectors
    n = 1024
    cached = [sample_fbm(0.45, n, 1.0, seed=s).X for s in (1, 2, 3)]
    assert list(rough_driver._factor) == [(0.45, n, 1.0)]
    rough_driver._factor.clear()
    monkeypatch.setattr(rough_driver, "_CACHE_BYTES", 2 ** 20)
    tracemalloc.start()
    try:
        capped = [sample_fbm(0.45, n, 1.0, seed=s).X for s in (1, 2, 3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rough_driver._factor
    assert peak < 2 * 64 * n * 8, peak
    for a, b in zip(cached, capped):
        assert np.array_equal(a, b)


def test_the_cache_cap_keeps_the_benchmark_keys(cold_sampler):
    # the benchmark draws at n <= 2048 (16.5 MiB of blocks) and keeps its
    # warm draws
    for seed in (1, 2):
        sample_fbm(0.45, 2048, 1.0, seed=seed)
    assert list(rough_driver._factor) == [(0.45, 2048, 1.0)]


class _ClearedAfterStore(dict):
    """A cache that a concurrent draw at another key clears after each store."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.clear()


def test_caching_draw_survives_a_concurrent_clear(cold_sampler, monkeypatch):
    monkeypatch.setattr(rough_driver, "_factor", _ClearedAfterStore())
    streamed = sample_fbm(0.45, 128, 1.0, seed=1).X
    caching = sample_fbm(0.45, 128, 1.0, seed=1).X   # builds and stores U
    assert np.array_equal(streamed, caching)


@pytest.mark.parametrize("H", [0.35, 0.45, 0.8])
def test_fgn_autocovariance_matches_high_precision(H):
    mpmath = pytest.importorskip("mpmath")
    n = 2048
    with mpmath.workdps(40):
        two_h = mpmath.mpf(2 * H)
        step = mpmath.mpf(1) / n
        exact = np.array([float(((k + 1) ** two_h - 2 * mpmath.mpf(k) ** two_h
                                 + abs(k - 1) ** two_h) / 2 * step ** two_h)
                          for k in range(n)])
    c = _fgn_autocovariance(H, n, 1.0)
    # the second difference of k^{2H} is off by 2.6e-11 c_0 at H = 0.8
    assert np.max(np.abs(c - exact)) <= 5e-14 * c[0]
    np.testing.assert_allclose(_fgn_autocovariance(H, n, 2.0), c * (2.0 ** (2 * H)),
                               rtol=1e-15, atol=0)


def test_toeplitz_cholesky_rejects_non_pd_columns():
    U = _schur_factor([4.0, 2.0, 1.0])
    np.testing.assert_allclose(U.T @ U, [[4, 2, 1], [2, 4, 2], [1, 2, 4]],
                               rtol=1e-15)
    for col in ([1.0, 1.5], [1.0, -1.0], [1.0, 0.9, -0.9], [0.0, 0.0],
                [-1.0, 0.0], [1.0, np.nan]):
        with pytest.raises(CovarianceNotPD):
            _schur_factor(col)


def test_sampling_guards():
    with pytest.raises(ConfigError):
        sample_fbm(1.2, 64, 1.0)
    with pytest.raises(ConfigError):
        sample_fbm(0.5, 1, 1.0)
    with pytest.raises(ConfigError):
        sample_fbm(0.5, 64, -1.0)
    for n, T in ((64, np.inf), (64, np.nan), (64.0, 1.0), (True, 1.0)):
        with pytest.raises(ConfigError):
            sample_fbm(0.45, n, T)
    # a seed is an integer >= 0, and the path is gamma-Hoelder only below H
    for kwargs in ({"seed": -1}, {"seed": 1.0}, {"seed": True},
                   {"gamma": 0.45}, {"gamma": 0.77}, {"gamma": np.nan}):
        with pytest.raises(ConfigError):
            sample_fbm(0.45, 64, 1.0, **kwargs)


def test_driver_construction_guards():
    t = np.linspace(0, 1, 9)
    with pytest.raises(ConfigError):
        lift_geometric(t, np.ones(9), 0.5)           # X_0 != 0
    with pytest.raises(ConfigError):
        lift_geometric(t ** 2, np.zeros(9), 0.5)     # non-uniform grid
    for gamma in (-0.1, 0.0, np.inf, np.nan):        # 0 < gamma < inf
        with pytest.raises(ConfigError):
            lift_geometric(t, np.zeros(9), gamma)
    for t0 in (0.5, 1.0):
        with pytest.raises(ConfigError):
            lift_geometric(t + t0, np.zeros(9), 0.5)  # grid not anchored at 0
    x = t.copy()
    x[4] = np.nan
    with pytest.raises(ConfigError):
        lift_geometric(t, x, 0.5)                    # non-finite X
    xx = 0.5 * (t[None, :] - t[:, None]) ** 2
    xx[2, 6] = np.inf
    with pytest.raises(ConfigError):
        lift_explicit(t, t.copy(), xx, 0.5)          # non-finite XX
    with pytest.raises(ConfigError):
        lift_geometric(t, np.zeros(8), 0.5)          # X one point short
    for g in (np.zeros(8), np.full(9, 0.1), np.where(t > 0.5, np.nan, 0.0)):
        with pytest.raises(ConfigError):             # short, g_0 != 0, NaN
            RoughDriver(t, np.zeros(9), 0.5, g=g)


@pytest.mark.parametrize("explicit", [False, True], ids=["geometric", "explicit"])
def test_adjacent_increments_are_cached_read_only(explicit):
    D = sample_fbm(0.45, 64, 1.0, seed=4)
    if explicit:
        D = _ito_lift(D)
    dX, dXX = D.adjacent
    assert D.adjacent[0] is dX                  # formed once per driver
    i = np.arange(D.n)
    assert np.array_equal(dX, np.diff(D.X))
    assert np.array_equal(dXX, D.xx_entry(i, i + 1))
    for a in (dX, dXX):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_geometric_lift_linear_path():
    t = np.linspace(0, 1, 33)
    D = lift_geometric(t, t.copy(), 0.5)
    assert D.xx_entry(4, 20) == pytest.approx(0.5 * (t[20] - t[4]) ** 2, rel=1e-14)


def test_geometric_chen_defect_is_roundoff():
    D = sample_fbm(0.45, 64, 1.0, seed=5)
    assert driver_chen_defect_max(D) <= 1e-12


def test_an_accepted_explicit_lift_passes_the_chen_scan():
    # an Ito lift with a bump of CHEN_TOL / 4 on XX_{t_11, 0}: lift_explicit
    # accepts it, and the driver's own XX, read through g, obeys Chen
    D = sample_fbm(0.45, 24, 1.0, seed=2)
    xx = (0.5 * (D.X[None, :] - D.X[:, None]) ** 2
          - 0.5 * (D.times[None, :] - D.times[:, None]))
    xx[0, 11] += CHEN_TOL / 4
    ok = lift_explicit(D.times, D.X, xx, D.gamma)
    assert ok.lift == "explicit"
    assert driver_chen_defect_max(ok) <= CHEN_TOL


def test_stratonovich_oracle_matches_geometric_lift():
    # trapezoid iterated integral of the same path on a 16x finer grid
    # telescopes to X_t^2/2 exactly, matching the geometric lift
    fine = sample_fbm(0.45, 16 * 64, 1.0, seed=9)
    coarse = fine.restricted(16)
    x = fine.X
    strat = np.cumsum(0.5 * (x[:-1] + x[1:]) * np.diff(x))
    for idx in (16, 320, 1024):
        i_coarse = idx // 16
        assert coarse.xx_entry(0, i_coarse) == pytest.approx(
            strat[idx - 1], abs=1e-12)


def test_chen_scan_matches_triple_loop_oracle():
    rng = np.random.default_rng(6)
    m = 13
    x = np.concatenate([[0.0], np.cumsum(rng.standard_normal(m - 1))])
    xx = 0.5 * (x[None, :] - x[:, None]) ** 2 + 1e-13 * rng.standard_normal((m, m))
    np.fill_diagonal(xx, 0.0)
    worst = 0.0
    for s in range(m):
        for u in range(s, m):
            for t in range(u, m):
                d = xx[s, t] - xx[s, u] - xx[u, t] - (x[u] - x[s]) * (x[t] - x[u])
                worst = max(worst, abs(d))
    assert chen_defect_max(x, xx, chunk=5) == pytest.approx(worst, rel=1e-12)


def test_explicit_lift_accept_and_reject():
    D = sample_fbm(0.45, 24, 1.0, seed=2)
    xx = 0.5 * (D.X[None, :] - D.X[:, None]) ** 2
    ok = lift_explicit(D.times, D.X, xx, D.gamma)
    assert ok.xx_entry(3, 17) == pytest.approx(xx[3, 17])
    assert not np.any(ok.g)
    bad = xx.copy()
    bad[3, 17] += 1e-6
    with pytest.raises(ChenViolation):
        lift_explicit(D.times, D.X, bad, D.gamma)
    # a clean Ito lift is accepted at a size the O(n^3) triple scan makes slow
    big = sample_fbm(0.45, 512, 1.0, seed=2)
    ito = _ito_lift(big)
    np.testing.assert_allclose(ito.g, -0.5 * big.times, rtol=0, atol=1e-14)


_CHEN_MOVES = {
    "interior entry": [((3, 17), 1e-6)],
    "row 0 entry": [((0, 11), 1e-6)],
    # Chen defect 3 * CHEN_TOL / 2 on the triple (3, 9, 17), but each pair
    # residual is CHEN_TOL / 2: rejected only because the bound is CHEN_TOL / 3
    "triple at half the tolerance": [((3, 17), CHEN_TOL / 2),
                                     ((3, 9), -CHEN_TOL / 2),
                                     ((9, 17), -CHEN_TOL / 2)],
}


@pytest.mark.parametrize("case", sorted(_CHEN_MOVES))
def test_explicit_lift_rejects_what_the_triple_scan_rejects(case):
    D = sample_fbm(0.45, 24, 1.0, seed=2)
    bad = 0.5 * (D.X[None, :] - D.X[:, None]) ** 2
    for (s, t), delta in _CHEN_MOVES[case]:
        bad[s, t] += delta
    assert chen_defect_max(D.X, bad) > CHEN_TOL
    with pytest.raises(ChenViolation):
        lift_explicit(D.times, D.X, bad, D.gamma)


def test_metric_zero_and_closed_form():
    t = np.linspace(0, 1, 65)
    D = lift_geometric(t, t.copy(), 0.5)
    assert rough_metric(D, D) == 0.0
    # X_t = t, gamma = 1/2 on [0,1]: path term sups to 1, lift term to 1/2.
    assert rho(D) == pytest.approx(1.5, rel=1e-12)


def test_metric_axioms_on_samples():
    a = sample_fbm(0.45, 64, 1.0, seed=1)
    b = sample_fbm(0.45, 64, 1.0, seed=2)
    c = sample_fbm(0.45, 64, 1.0, seed=3)
    dab, dba = rough_metric(a, b), rough_metric(b, a)
    assert dab == pytest.approx(dba, rel=1e-14)
    assert rough_metric(a, c) <= dab + rough_metric(b, c) + 1e-12
    assert dab > 0


def _ito_lift(D):
    """Explicit non-geometric lift XX_{t,s} = X_{t,s}^2/2 + g_t - g_s, g = -t/2."""
    xx = (0.5 * (D.X[None, :] - D.X[:, None]) ** 2
          - 0.5 * (D.times[None, :] - D.times[:, None]))
    return lift_explicit(D.times, D.X, xx, D.gamma)


@pytest.mark.parametrize("explicit, n", [
    (False, 24), (True, 24), (False, 300), (True, 300)],
    ids=["False", "True", "False-300", "True-300"])
def test_driver_seminorms_match_brute_force(explicit, n):
    # n = 300 spans several row blocks of increment_sups (54 rows each)
    a = sample_fbm(0.45, n, 1.0, seed=1)
    b = sample_fbm(0.45, n, 1.0, seed=2)
    if explicit:
        a, b = _ito_lift(a), _ito_lift(b)
    assert holder_seminorm(a, 0.35) == pytest.approx(
        brute_force_holder(a.times, a.X, abs, 0.35), rel=1e-12)
    assert rho(a) == pytest.approx(brute_force_rough_metric(a, None, a.gamma),
                                   rel=1e-12)
    assert rough_metric(a, b) == pytest.approx(
        brute_force_rough_metric(a, b, a.gamma), rel=1e-12)


def test_metric_grid_mismatch():
    a = sample_fbm(0.45, 64, 1.0, seed=1)
    b = sample_fbm(0.45, 32, 1.0, seed=1)
    with pytest.raises(GridMismatch):
        rough_metric(a, b)


GRID_ENTRIES = {
    "rough_convolve": lambda P, Q, D, E: rough_convolve(Q, D),
    "young_convolve": lambda P, Q, D, E: young_convolve(Q, D),
    "crp_norm": lambda P, Q, D, E: crp_norm(Q, D),
    "crp_distance": lambda P, Q, D, E: crp_distance(P, Q, D, 1),
    "crp_distance driver at stride 2": lambda P, Q, D, E: crp_distance(P, P, E, 2),
    "path subtraction": lambda P, Q, D, E: P - Q,
    "rough_metric": lambda P, Q, D, E: rough_metric(D, E),
    "stability_distance": lambda P, Q, D, E: stability_distance(P, Q, D, E, 0.35),
    "stability_distance driver": lambda P, Q, D, E: stability_distance(
        P, P, D, E, 0.35),
    "level_sum": lambda P, Q, D, E: level_sum(P, E, 32, 2),
}


@pytest.mark.parametrize("moved_by", [1e-10, 1e-3])
@pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
def test_grid_entries_reject_a_perturbed_grid(entry, moved_by, neumann_scale):
    # one grid check with one tolerance, 1e-12 max(1, |T|), behind every entry:
    # a grid whose last point moved by moved_by is another grid
    D = sample_fbm(0.8, 32, 1.0, seed=5, gamma=0.77)
    rows = np.random.default_rng(3).standard_normal((33, 16))
    moved = np.linspace(0.0, 1.0 + moved_by, 33)

    def path(times):
        return ControlledPath(times, rows, rows, -neumann_scale.eta, 0.40,
                              neumann_scale)

    P, E = path(D.times), lift_geometric(moved, D.X, D.gamma)
    GRID_ENTRIES[entry](P, path(D.times.copy()), D, D)   # same grid: accepted
    with pytest.raises(GridMismatch):
        GRID_ENTRIES[entry](P, path(moved), D, E)


def test_holder_seminorm_growth_separates_exponents():
    # Restrictions of one master path: below H the seminorm saturates, above
    # H it keeps growing with resolution.  Thresholds frozen from the pooled
    # 5-seed measurement (0.062 vs 0.164).
    slopes35, slopes45, ratios35 = [], [], []
    ns = (256, 512, 1024, 2048, 4096)
    for seed in range(5):
        master = sample_fbm(0.4, 4096, 1.0, seed=seed, gamma=0.35)
        s35 = [holder_seminorm(master.restricted(4096 // n), 0.35) for n in ns]
        s45 = [holder_seminorm(master.restricted(4096 // n), 0.45) for n in ns]
        slopes35.append(stats.linregress(np.log2(ns), np.log2(s35)).slope)
        slopes45.append(stats.linregress(np.log2(ns), np.log2(s45)).slope)
        ratios35.append(s35[-1] / s35[0])
    assert np.mean(slopes35) <= 0.10
    assert max(ratios35) <= 1.5
    assert np.mean(slopes45) >= 0.08
    assert np.mean(slopes45) - np.mean(slopes35) >= 0.05


def test_shift_identity_flow_and_cocycle():
    D = sample_fbm(0.45, 64, 1.0, seed=4)
    s0 = shift(D, 0.0)
    assert np.array_equal(s0.X, D.X) and np.array_equal(s0.times, D.times)

    t1, t2 = D.times[16], D.times[24]
    once = shift(shift(D, t1), t2 - t1)
    direct = shift(D, t2)
    assert np.max(np.abs(once.X - direct.X)) <= 1e-14

    # second-order cocycle identity, exact for the geometric lift
    i = 16
    theta = shift(D, D.times[i])
    for j in (3, 20, 40):
        lhs = D.xx_entry(i, i + j)
        rhs = theta.xx_entry(0, j)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    with pytest.raises(GridMismatch):
        shift(D, 0.013)
    with pytest.raises(GridMismatch):   # one grid point left
        shift(D, D.T)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(GridMismatch):
            D.index_of(t)


def test_restriction_requires_divisor():
    D = sample_fbm(0.45, 64, 1.0, seed=4)
    with pytest.raises(GridMismatch):
        D.restricted(3)
    for stride in (2.0, 2.5, True):
        with pytest.raises(GridMismatch):
            D.restricted(stride)
    assert D.restricted(np.int64(2)).n == 32


def test_restriction_past_the_grid_end_is_a_grid_mismatch(neumann_scale):
    D = sample_fbm(0.45, 64, 1.0, seed=4)
    P = ControlledPath(D.times, np.zeros((65, 16)), np.zeros((65, 16)), -0.3,
                       0.40, neumann_scale)
    for grid in (D, P):
        assert grid.restricted(1, stop=32).n == 32
        with pytest.raises(GridMismatch):
            grid.restricted(1, stop=100)


def test_constructors_store_the_float_arrays_they_freeze(neumann_scale):
    t = np.linspace(0.0, 1.0, 5)
    D = RoughDriver(t, np.array([0, 1, 2, 1, 0]), 0.4)
    assert D.X.dtype == float and not D.X.flags.writeable
    listed = RoughDriver(t.tolist(), [0.0, 1.0, 2.0, 1.0, 0.0], 0.4)
    assert listed.n == 4 and not listed.times.flags.writeable
    P = ControlledPath(np.arange(5), np.zeros((5, 16)), np.zeros((5, 16)),
                       -0.3, 0.40, neumann_scale)
    assert P.times.dtype == float and not P.times.flags.writeable
    with pytest.raises(ConfigError):   # one row per time, one column per mode
        ControlledPath(t, np.zeros(5), np.zeros(5), -0.3, 0.40, neumann_scale)


def test_constructors_leave_the_callers_arrays_writeable(neumann_scale):
    # each stores a read-only view; the arrays passed in keep their flags
    t, x, g = np.linspace(0.0, 1.0, 5), np.array([0.0, 1, 2, 1, 0]), np.zeros(5)
    y, c = np.ones((5, 16)), np.ones(16)
    D = RoughDriver(t, x, 0.4, g=g)
    P = ControlledPath(t, y, y, -0.3, 0.40, neumann_scale)
    v = SpectralVector(c, -0.3, neumann_scale)
    for a in (t, x, g, y, c):
        assert a.flags.writeable
    for stored in (D.times, D.X, D.g, P.times, P.y, P.y_prime, v.coeffs):
        with pytest.raises(ValueError):
            stored[0] = 1.0


def test_csv_export_roundtrip(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("study = sample\nH = 0.45\nn = 16\nseed = 11\n")
    cmd_sample(parse_config(str(cfg)), str(tmp_path))
    D = sample_fbm(0.45, 16, 1.0, seed=11)
    lines = (tmp_path / "driver.csv").read_text().splitlines()
    assert lines[0] == "time,X"
    assert len(lines) == 18
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back[:, 0], D.times)
    assert np.array_equal(back[:, 1], D.X)


def _increment_case(case, m, n_legs):
    """(v, legs) on m grid points: generic, offset by 1e8, drifting by 1e3 t,
    constant, exactly controlled (y = c + sum_l v_l X^l, p_l = -v_l), zero,
    or identical legs."""
    rng = np.random.default_rng(m + 10 * n_legs)
    X = [np.concatenate(([0.0], np.cumsum(rng.standard_normal(m - 1)))) / np.sqrt(m)
         for _ in range(n_legs)]
    walk = np.cumsum(rng.standard_normal((m, 16)), axis=0) / np.sqrt(m)
    ps = [rng.standard_normal((m, 16)) for _ in range(n_legs)]
    c = rng.standard_normal(16)
    if case == "generic":
        return walk, list(zip(ps, X))
    if case == "offset":
        return 1e8 + walk, list(zip(ps, X))
    if case == "drift":
        return walk + 1e3 * np.linspace(0.0, 1.0, m)[:, None], list(zip(ps, X))
    if case == "constant":
        return np.tile(c, (m, 1)), [(np.zeros((m, 16)), x) for x in X]
    if case == "controlled":
        vecs = rng.standard_normal((n_legs, 16))
        y = c + sum(np.outer(x, vec) for x, vec in zip(X, vecs))
        return y, [(np.tile(-vec, (m, 1)), x) for x, vec in zip(X, vecs)]
    if case == "zero":
        return np.zeros((m, 16)), [(np.zeros((m, 16)), x) for x in X]
    # identical: the remainder difference of one path over one driver
    return np.zeros((m, 16)), [(-ps[0], X[0]), (ps[0], X[0])]


@pytest.mark.parametrize("case, n_legs, m", [
    (case, n_legs, m) for case, n_legs in (
        ("generic", 1), ("generic", 2), ("offset", 1), ("offset", 2),
        ("drift", 1), ("drift", 2), ("constant", 2), ("controlled", 1),
        ("controlled", 2), ("zero", 1), ("identical", 2))
    for m in (2, 3, 65, 130, 257)] + [("generic", 2, 1025), ("drift", 2, 1025)])
def test_increment_sups_match_the_pairwise_oracle(neumann_scale, m, case, n_legs):
    # m = 130 and 257 run over several row blocks, m - 1 = 129 is no power of
    # 2, and m = 1025 is the stability size (64 blocks of 16 rows).  Centred
    # once at row 0, the drift leaves |u| far above the short-lag increments,
    # which the per-row rounding bound must still cover.
    v, legs = _increment_case(case, m, n_legs)
    times = np.linspace(0.0, 1.0, m)
    alphas, exponents = (-0.7, -1.1), (0.4, 0.8)
    W = np.stack([neumann_scale.sq_weights(a) for a in alphas])
    sups = rough_driver.increment_sups(times, v, legs, W, exponents)
    for sup, a, e in zip(sups, alphas, exponents):
        expected = brute_force_increment_sup(
            times, v, legs, lambda d, a=a: neumann_scale.norm(d, a), e)
        assert sup == pytest.approx(expected, rel=1e-14, abs=0.0)
        if case in ("constant", "zero", "identical"):
            assert sup == 0.0
    no_legs = rough_driver.increment_sups(times, v, (), W[:1], exponents[:1])[0]
    assert no_legs == pytest.approx(brute_force_increment_sup(
        times, v, (), lambda d: neumann_scale.norm(d, alphas[0]), exponents[0]),
        rel=1e-14, abs=0.0)


def _recompute_case(case, scale):
    """(times, v, legs, weights, exponents): drift plus zigzag with no
    legs at m = 257, an fBm driver's lift v = (X, X^2/2 + g) with the leg
    (0, -X) over X at n = 1024, the call behind rho, or a `_increment_case`
    at m grid points, named "case m", all with one-hot weights.  "1e8 leg
    seed m" draws c, a walk X from 0 and noise from default_rng(seed) and
    sets v = 1e8 + X c + 1e-6 noise with the one leg -c over X, in the
    weights of `scale` at -0.7 and -1.1.  "tie m" makes every pair's ratio
    equal.  "gram nan 130" puts |p_s| = 1e200 on rows 127 and 128, the
    second row block, over a driver constant there: that block's Gram
    values are inf - inf, while every increment is finite and the last one,
    which holds the sup, jumps by 100.  "gram nan early m" puts those rows
    at 10 and 11, with the driver constant from row 10 on: at m = 130 they
    sit in the first row block and the sup in the second, at m = 65 all
    rows form one block."""
    one_hot = np.eye(16), np.tile((0.4, 0.8), 8)
    if case == "zigzag":
        t = np.linspace(0.0, 1.0, 257)
        c = np.random.default_rng(0).standard_normal(16)
        v = 50.0 * t[:, None] * c + (-1.0) ** np.arange(257)[:, None] * c
        return (t, v, ()) + one_hot
    if case == "fbm lift":
        D = sample_fbm(0.45, 1024, 1.0, seed=3, gamma=0.40)
        v = np.stack((D.X, 0.5 * D.X ** 2 + D.g), axis=1)
        p = np.zeros_like(v)
        p[:, 1] = -D.X
        return D.times, v, ((p, D.X),), np.eye(2), (D.gamma, 2 * D.gamma)
    name, m = case.rsplit(" ", 1)
    m = int(m)
    if name.startswith("1e8 leg"):
        rng = np.random.default_rng(int(name.rsplit(" ", 1)[1]))
        c = rng.standard_normal(16)
        X = np.cumsum(rng.standard_normal(m))
        X -= X[0]
        v = 1e8 + np.outer(X, c) + 1e-6 * rng.standard_normal((m, 16))
        W = np.stack([scale.sq_weights(a) for a in (-0.7, -1.1)])
        return (np.linspace(0.0, 1.0, m), v, ((np.tile(-c, (m, 1)), X),), W,
                (0.4, 0.8))
    if name == "tie":
        # v_t - v_s - c X_{t,s} = 50 (t - s) c: at exponent 1 every pair ties,
        # so rounding alone decides which pair holds the sup
        t = np.linspace(0.0, 1.0, m)
        c = np.random.default_rng(m).standard_normal(16)
        return (t, 53.0 * t[:, None] * c, ((np.tile(-c, (m, 1)), 3.0 * t),),
                np.eye(16), np.ones(16))
    if name in ("gram nan", "gram nan early"):
        first = 127 if name == "gram nan" else 10
        v, ((p, X),) = _increment_case("generic", m, 1)
        p, X = p.copy(), X.copy()
        p[first:first + 2] = 1e200
        X[first:] = X[first]
        v[m - 1] += 100.0   # the sup is the pair (m - 2, m - 1)
        legs = ((p, X),)
    else:
        v, legs = _increment_case(name, m, 2)
    return (np.linspace(0.0, 1.0, m), v, legs) + one_hot


@pytest.mark.parametrize("case", [
    "zigzag", "fbm lift", "gram nan 130", "gram nan early 65",
    "gram nan early 130", "tie 65", "tie 130", "tie 257", "1e8 leg 1 65",
    "1e8 leg 11 33", "1e8 leg 21 33", "1e8 leg 28 33"] + [
    f"{name} {m}" for name in ("offset", "identical") for m in (2, 3, 130)])
def test_increment_sups_equal_the_recompute_oracle(neumann_scale, case):
    # the sups are direct recomputes, one dot product per pair, so they equal
    # the oracle's bitwise iff the screen keeps each norm's best pair, with
    # real weights too: the "1e8 leg" cases leave a sup pair whose value, as
    # a row of one product over a batch of screened pairs, moved in its last
    # bit with the other pairs of the batch.  Centred at row 0, the drift
    # leaves |u| far above the zigzag's increments with no leg to absorb the
    # Gram error, so the |u| terms of the per-row bound beta_s decide; the
    # driver lift puts large X^2/2 next to small XX_{t,s}.  The 1e8 offset
    # and the identical legs (which cancel to zero) run over two legs, and
    # m = 2, 3 leave one block of one or two rows.  The ties leave rounding
    # alone to pick the sup pair: they drop it once the rounding constant c
    # falls to about 1/4, against the derived worst case
    # c = 2k + Kx + 4L + 17 (89 for them).  A non-finite row is recomputed.
    times, v, legs, W, exponents = _recompute_case(case, neumann_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        sups = rough_driver.increment_sups(times, v, legs, W, exponents)
    assert np.all(np.isfinite(sups))
    assert np.array_equal(sups, recompute_increment_sups(times, v, legs, W,
                                                         exponents))


def test_lag_tables_are_cached_read_only():
    dt, F, max_inv = rough_driver._lag_tables(65, 1.0, 0.4, 8)
    assert rough_driver._lag_tables(65, 1.0, 0.4, 8)[1] is F
    assert max_inv == np.max(1.0 / dt)
    assert F[0, 0] == 1.0 / dt[0] and F[1, 0] == 0.0
    for table in (dt, F):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_increment_sups_recompute_only_the_screened_pairs(neumann_scale):
    # the kernel centres once at row 0, so the 1e8 offset leaves the
    # rounding bound tight and few pairs reach the direct recompute; the
    # traced peak stays near a few (rows, m) temporaries of 128 KiB, where
    # recomputing every pair of the 64-row blocks holds about 6.5 MiB
    v, legs = _increment_case("offset", 257, 2)
    W = np.stack([neumann_scale.sq_weights(a) for a in (-0.7, -1.1)])
    tracemalloc.start()
    try:
        rough_driver.increment_sups(np.linspace(0.0, 1.0, 257), v, legs, W,
                                    (0.4, 0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak
