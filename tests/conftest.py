import numpy as np
import pytest

from roughbound import (BOUNDARY, BoundarySpace, BoundaryVector, ConfigError,
                        ControlledPath, ProblemSpec, RoughDriver, Scale,
                        ScaleConfig, SmoothMap, SpectralVector, build_scale,
                        diffusion_rows, lift_extrapolate, neumann_map,
                        rough_convolve, sample_fbm, solve_global)
from roughbound.controlled_path import _check_domain
from roughbound.rough_driver import increment_sups
from roughbound.studies import _anchor_path


@pytest.fixture(scope="session")
def neumann_scale():
    return build_scale(ScaleConfig(a=1.0, b=-1.0, K=16, gamma=0.40, delta=0.05))


@pytest.fixture(scope="session")
def dirichlet_scale():
    return build_scale(ScaleConfig(a=1.0, b=-1.0, K=16, bc="dirichlet",
                                   gamma=0.77, delta=0.005))


@pytest.fixture(scope="session")
def driver_small():
    return sample_fbm(0.45, 256, 1.0, seed=7, gamma=0.40)


@pytest.fixture(scope="session")
def lifted_y0(neumann_scale):
    return neumann_map(BoundaryVector(1.0, 0.5), neumann_scale).coeffs


# -- reference implementations ---------------------------------------------------
# Independent routes the tests compare the library against; none of them is
# on a solver, study or CLI path.

def fractional_power(v: SpectralVector, theta: float) -> SpectralVector:
    """(-A)^theta applied spectrally: coefficients mu_k^theta c_k at index alpha - theta.

    theta may have either sign; theta = -s inverts theta = s exactly.  The
    overall sign flag lives in apply_generator: (-A)^1 = -A.
    """
    return SpectralVector(v.coeffs * v.scale.mu ** float(theta), v.alpha - theta,
                          v.scale)


def apply_generator(v: SpectralVector) -> SpectralVector:
    """A v (spectrum -mu_k), uniformly for every realization A_alpha.

    The extrapolated operators A_{-eta}, A_{-sigma} share this multiplier;
    only the bookkeeping index of the argument distinguishes them.
    """
    w = fractional_power(v, 1.0)
    return SpectralVector(-w.coeffs, w.alpha, w.scale)


def apply_semigroup(v: SpectralVector, t: float) -> SpectralVector:
    """S_t v: coefficients e^{-mu_k t} c_k at the same index; S_0 is Id exactly."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if t == 0:
        return v
    return SpectralVector(v.coeffs * v.scale.semigroup(t), v.alpha, v.scale)


def neumann_profile(g: BoundaryVector, scale: Scale, x):
    """Untruncated closed-form Neumann solution evaluated at points x."""
    k = scale.kappa
    x = np.asarray(x, dtype=float)
    denom = scale.cfg.a * k * np.sinh(k)
    return (g.g0 * np.cosh(k * (1.0 - x)) + g.g1 * np.cosh(k * x)) / denom


def dirichlet_profile(g: BoundaryVector, scale: Scale, x):
    """Untruncated closed-form Dirichlet solution evaluated at points x."""
    k = scale.kappa
    x = np.asarray(x, dtype=float)
    return (g.g0 * np.sinh(k * (1.0 - x)) + g.g1 * np.sinh(k * x)) / np.sinh(k)


def lift_operator_norm(scale: Scale, alpha: float) -> float:
    """Operator norm of the lift from (R^2, euclidean) into B_alpha."""
    m = scale.lift * scale.mu[:, None] ** float(alpha)
    return float(np.linalg.norm(m, 2))


def holder_seminorm(D: RoughDriver, gamma: float | None = None) -> float:
    """[X]_gamma = sup over grid pairs of |X_{t,s}| / (t-s)^gamma."""
    g = D.gamma if gamma is None else gamma
    return float(increment_sups(D.times, D.X[:, None], (), np.ones((1, 1)), (g,))[0])


def compose_smooth(F: SmoothMap, P: ControlledPath) -> ControlledPath:
    """(F(y), DF(y) o y') as a boundary-valued controlled path.

    The output index is the declared gain over the input index; the remainder
    picks up the second-order Taylor defect of F, which stays 2 gamma-Hoelder
    because D^2 F is bounded.
    """
    _check_domain(F, P)
    return ControlledPath(P.times, F.value(P.y), F.dvalue(P.y, P.y_prime),
                          P.alpha + F.delta2, P.gamma, BOUNDARY)


def diffusion_derivative_rows(F: SmoothMap, scale: Scale, y_rows, h_rows):
    """DG(y)[h] = A_{-sigma} N (DF(y)[h]) rowwise."""
    return F.dvalue(y_rows, h_rows) @ scale.generator_lift


def lift_controlled(path: ControlledPath, scale: Scale) -> ControlledPath:
    """Lift a boundary-valued controlled path into the interior at index eps.

    The lift is linear, so the Gubinelli derivative and the remainder map
    through it unchanged: (Ny, Ny') with R^{Ny} = N R^y.
    """
    if not isinstance(path.space, BoundarySpace):
        raise ConfigError("lift_controlled expects a boundary-valued path")
    m = scale.lift.T
    return ControlledPath(path.times, path.y @ m, path.y_prime @ m, scale.eps,
                          path.gamma, scale)


def additive_direct(spec: ProblemSpec) -> ControlledPath:
    """Direct evaluation for constant F: y = S y0 + int S G dX, no iteration.

    Uses plain per-time compensated sums (independent of the recurrence in
    rough_convolve), so it double-checks the Picard route.
    """
    scale, D = spec.scale, spec.driver
    g0 = diffusion_rows(spec.diffusion, scale,
                        np.asarray(spec.y0, float)[None, :])[0]
    times = D.times
    rows = scale.semigroup(times) * np.asarray(spec.y0, float)
    dx = np.diff(D.X)
    for i in range(1, times.size):
        weights = scale.semigroup(times[i] - times[:i])
        rows[i] += g0 * np.sum(weights * dx[:i, None], axis=0)
    return ControlledPath(times.copy(), rows, np.tile(g0, (times.size, 1)),
                          spec.solution_alpha, scale.gamma, scale)


def lift_test_scale(bc, K):
    """A scale with a != 1, so the Dirichlet lift's factor a is exercised."""
    if bc == "neumann":
        return build_scale(ScaleConfig(a=0.7, b=-2.0, K=K, gamma=0.40, delta=0.05))
    return build_scale(ScaleConfig(a=0.7, b=-2.0, K=K, bc="dirichlet",
                                   gamma=0.77, delta=0.005))


def lift_oracle(scale):
    """The (K, 2) lift N by its closed-form formulas, written out per boundary
    condition (test oracle): (e_k(0), e_k(1)) / mu_k for Neumann and
    a (e_k'(0), -e_k'(1)) / mu_k for Dirichlet data."""
    k = scale.wavenumbers
    if scale.bc == "neumann":
        x = np.array([0.0, 1.0])
        vals = np.sqrt(2.0) * np.cos(k[None, :] * np.pi * x[:, None])
        vals[:, k == 0] = 1.0
        return vals.T / scale.mu[:, None]
    d0 = np.sqrt(2.0) * k * np.pi
    d1 = d0 * np.cos(k * np.pi)
    m = np.empty((scale.K, 2))
    m[:, 0] = scale.cfg.a * d0 / scale.mu
    m[:, 1] = -scale.cfg.a * d1 / scale.mu
    return m


def brute_force_holder(times, values, norms_fn, exponent):
    """Independent pairwise-loop Hoelder seminorm (test oracle)."""
    worst = 0.0
    m = len(times)
    for i in range(m):
        for j in range(i + 1, m):
            worst = max(worst, norms_fn(values[j] - values[i])
                        / (times[j] - times[i]) ** exponent)
    return worst


def brute_force_remainder(times, y, y_prime, X, norms_fn, exponent):
    """Pairwise-loop remainder seminorm [R^y]_exponent (test oracle)."""
    worst = 0.0
    m = len(times)
    for i in range(m):
        for j in range(i + 1, m):
            r = y[j] - y[i] - y_prime[i] * (X[j] - X[i])
            worst = max(worst, norms_fn(r) / (times[j] - times[i]) ** exponent)
    return worst


def remainder(path, i, j, D):
    """R^y_{t_j, t_i} for grid indices i <= j."""
    return path.y[j] - path.y[i] - path.y_prime[i] * (D.X[j] - D.X[i])


def xx_lag(D, lag):
    """XX_{t_{i+lag}, t_i} for all i, shape (n+1-lag,)."""
    return (0.5 * (D.X[lag:] - D.X[:-lag]) ** 2
            + (D.g[lag:] - D.g[:-lag]))


def scaled(path, c):
    return ControlledPath(path.times, path.y * c, path.y_prime * c,
                          path.alpha, path.gamma, path.space)


def phi_second_bound(F):
    """sup |phi''| for phi(u) = amp tanh(u/amp): 4 / (3 sqrt(3) amp)."""
    return 4.0 / (3.0 * np.sqrt(3.0) * F.amp)


def squashed_d2value(F, y_rows, h_rows, g_rows):
    """D^2 F(y)[h, g] of a SquashedTrace, rowwise; phi'' = -2/amp tanh sech^2."""
    t = np.tanh(F._u(y_rows) / F.amp)
    phi2 = (-2.0 / F.amp) * t * (1.0 - t * t)
    return (phi2 * (np.asarray(h_rows, dtype=float) @ F.w)
            * (np.asarray(g_rows, dtype=float) @ F.w))


def evaluate(v, x):
    """Reconstruct the function at points x from the truncated expansion."""
    return v.scale.basis(x) @ v.coeffs


def remainder_seminorm(space, times, y, y_prime, X, alpha, exponent) -> float:
    """[R^y]_exponent at the given index over all grid pairs."""
    return brute_force_increment_sup(times, y, [(-y_prime, X)],
                                     lambda d: space.norm(d, alpha), exponent)


def brute_force_increment_sup(times, v, legs, norm_fn, exponent):
    """sup over pairs s < t of norm_fn(v_t - v_s + sum_legs p_s X_{t,s})
    / (t-s)^exponent, one row s at a time against every later t, with
    t - s = lag x the uniform grid step (test oracle)."""
    m = len(times)
    h = (times[-1] - times[0]) / (m - 1)
    worst = 0.0
    for i in range(m - 1):
        d = v[i + 1:] - v[i]
        for p, X in legs:
            d = d + p[i] * (X[i + 1:] - X[i])[:, None]
        worst = max(worst, float(np.max(norm_fn(d)
                                        / (np.arange(1, m - i) * h) ** exponent)))
    return worst


def recompute_increment_sups(times, v, legs, weights, exponents):
    """increment_sups by the kernel's own direct recompute over every pair
    (test oracle): d = v_t - v_s, then d += p^l_s (X^l_t - X^l_s) leg by leg,
    and (d d) w_j, one dot product per pair, over lag^{2 e_j} on the same
    array of lags.  A pair's value depends on that pair alone, so the result
    is bitwise the kernel's whenever its screen keeps the pair that holds
    the sup."""
    m = len(times)
    W = np.asarray(weights, dtype=float)
    lags = np.arange(1, m) * ((times[-1] - times[0]) / (m - 1))
    sups = np.zeros(W.shape[0])
    for j, (w, e) in enumerate(zip(W, exponents)):
        dt = lags ** (2.0 * float(e))
        for s in range(m - 1):
            t = np.arange(s + 1, m)
            d = v[t] - v[s]
            for p, X in legs:
                d += p[s] * (X[t] - X[s])[:, None]
            direct = np.matmul((d * d)[:, None, :], w[:, None])[:, 0, 0]
            sups[j] = max(sups[j], np.max(direct / dt[t - s - 1]))
    return np.sqrt(sups)


def brute_force_crp_norm(path, driver):
    """Second implementation of the controlled-path norm, plain double loops."""
    sc = path.space
    g = path.gamma
    a = path.alpha
    times, y, yp, X = path.times, path.y, path.y_prime, driver.X

    def nrm(alpha):
        return lambda row: float(sc.norm(row, alpha))

    total = max(float(sc.norm(y[i], a)) for i in range(len(times)))
    total += max(float(sc.norm(yp[i], a - g)) for i in range(len(times)))
    total += brute_force_holder(times, yp, nrm(a - 2 * g), g)
    for expo, idx in ((g, a - g), (2 * g, a - 2 * g)):
        worst = 0.0
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                r = y[j] - y[i] - yp[i] * (X[j] - X[i])
                worst = max(worst, float(sc.norm(r, idx))
                            / (times[j] - times[i]) ** expo)
        total += worst
    return total


def brute_force_rough_metric(D1, D2, gamma):
    """Pairwise-loop inhomogeneous rough-path distance; D2=None gives rho."""
    def level_gap(i, j):
        dx = D1.X[j] - D1.X[i]
        dxx = D1.xx_entry(i, j)
        if D2 is not None:
            dx -= D2.X[j] - D2.X[i]
            dxx -= D2.xx_entry(i, j)
        return abs(dx), abs(dxx)

    first = second = 0.0
    times = D1.times
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            dx, dxx = level_gap(i, j)
            dt = times[j] - times[i]
            first = max(first, dx / dt ** gamma)
            second = max(second, dxx / dt ** (2 * gamma))
    return first + second


def brute_force_stability_distance(sol1, sol2, D1, D2, gamma_prime):
    """Second implementation of the solution distance, plain double loops."""
    sc = sol1.space
    g = sol1.gamma
    a = sol1.alpha
    times = sol1.times
    dy = sol1.y - sol2.y
    dp = sol1.y_prime - sol2.y_prime

    def nrm(alpha):
        return lambda row: float(sc.norm(row, alpha))

    total = max(float(sc.norm(dy[i], a)) for i in range(len(times)))
    total += max(float(sc.norm(dp[i], a - g)) for i in range(len(times)))
    total += brute_force_holder(times, dp, nrm(a - 2 * g), gamma_prime)
    for expo, idx in ((gamma_prime, a - g), (2 * gamma_prime, a - 2 * g)):
        worst = 0.0
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                r1 = sol1.y[j] - sol1.y[i] - sol1.y_prime[i] * (D1.X[j] - D1.X[i])
                r2 = sol2.y[j] - sol2.y[i] - sol2.y_prime[i] * (D2.X[j] - D2.X[i])
                worst = max(worst, float(sc.norm(r1 - r2, idx))
                            / (times[j] - times[i]) ** expo)
        total += worst
    return total


def dense_increment_cholesky(H, n, T):
    """Lower Cholesky factor of the dense fBm increment covariance (test oracle).

    Builds E[dX_i dX_j] = (|t_{j+1}-t_i|^{2H} + |t_j-t_{i+1}|^{2H}
    - |t_j-t_i|^{2H} - |t_{j+1}-t_{i+1}|^{2H}) / 2 from the grid times, as
    an (n, n) matrix, and factors it with LAPACK.
    """
    t = np.linspace(0.0, T, n + 1)
    left = t[:-1]
    right = t[1:]
    two_h = 2.0 * H
    cov = 0.5 * (np.abs(right[None, :] - left[:, None]) ** two_h
                 + np.abs(left[None, :] - right[:, None]) ** two_h
                 - np.abs(left[None, :] - left[:, None]) ** two_h
                 - np.abs(right[None, :] - right[:, None]) ** two_h)
    return np.linalg.cholesky(cov)


def dense_lift(D, g):
    """Dense (n+1, n+1) matrix XX[s, t] = (X_t - X_s)^2 / 2 + g_t - g_s."""
    return 0.5 * (D.X[None, :] - D.X[:, None]) ** 2 + (g[None, :] - g[:, None])


def dense_rough_convolve(P, X, XX):
    """Rough convolution by the one-step recurrence on XX[i, i+1] (test oracle)."""
    damp = np.exp(-P.space.mu * (P.times[1] - P.times[0]))
    z = np.zeros_like(P.y)
    for i in range(P.n):
        z[i + 1] = damp * (z[i] + P.y[i] * (X[i + 1] - X[i])
                           + P.y_prime[i] * XX[i, i + 1])
    return z


def dense_level_sum(P, X, XX, t_idx, level, s_idx=0):
    """Compensated sum over the level-n dyadic partition, read off XX (test oracle)."""
    stride = (t_idx - s_idx) // 2 ** level
    total = np.zeros(P.y.shape[1])
    for u in range(s_idx, t_idx, stride):
        v = u + stride
        total += (np.exp(-P.space.mu * (P.times[t_idx] - P.times[u]))
                  * (P.y[u] * (X[v] - X[u]) + P.y_prime[u] * XX[u, v]))
    return total


def dense_remainder_sups(P, Z, X, XX, betas, stride=1):
    """Unnormalised rough remainder sups over the pairs of every stride-th grid
    point, read off XX (test oracle)."""
    sc, g = P.space, P.gamma
    sups = np.zeros(len(betas))
    for i in range(0, P.n + 1, stride):
        for j in range(i + stride, P.n + 1, stride):
            dt = P.times[j] - P.times[i]
            r = Z.y[j] - np.exp(-sc.mu * dt) * (
                Z.y[i] + P.y[i] * (X[j] - X[i]) + P.y_prime[i] * XX[i, j])
            for b, beta in enumerate(betas):
                sups[b] = max(sups[b], float(sc.norm(r, P.alpha - 2 * g + beta))
                              / dt ** (3 * g - beta))
    return sups


def generator_coefficients(scale: Scale, coeff_rows):
    """Rowwise A-action on an (..., K) coefficient array: multiply by -mu_k."""
    return -np.asarray(coeff_rows, dtype=float) * scale.mu


# -- interchange identity ---------------------------------------------------------

def interchange_error(scale: Scale, F: SmoothMap, y0, D: RoughDriver) -> float:
    """Relative gap between A (int S N F dX) and int S A_{-sigma} N F dX.

    The two sides follow independent code routes: composition + lift +
    convolution + generator versus the fused lift-extrapolated convolution.
    """
    u = _anchor_path(scale, F, y0, D)
    lifted = lift_controlled(compose_smooth(F, u), scale)
    lhs = generator_coefficients(scale, rough_convolve(lifted, D).y)
    rhs = rough_convolve(lift_extrapolate(F, u, scale), D).y
    denom = max(float(np.max(scale.norm(lhs, scale.eps - 1.0))), 1e-300)
    return float(np.max(scale.norm(lhs - rhs, scale.eps - 1.0))) / denom


# -- solver probes -----------------------------------------------------------------

def zero_noise_error(spec: ProblemSpec, drift_c: float) -> float:
    """Max deviation from the per-mode exact solution e^{-(mu_k - c) t} y0_k."""
    res = solve_global(spec)
    scale = spec.scale
    exact = np.exp(-np.outer(res.path.times, scale.mu - drift_c)) * spec.y0
    return float(np.max(np.abs(res.path.y - exact)))


def additive_bypass_error(spec: ProblemSpec) -> float:
    """Sup-norm gap between the Picard solution and the direct evaluation."""
    picard = solve_global(spec).path
    direct = additive_direct(spec)
    return float(np.max(spec.scale.norm(picard.y - direct.y,
                                        spec.solution_alpha)))
