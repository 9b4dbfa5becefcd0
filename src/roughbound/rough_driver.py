"""Sampling, lifting, validating and shifting Hoelder rough paths on a grid.

A driver is a scalar path X with X_0 = 0 on a uniform grid that starts at
t = 0 (so its horizon T is the last grid time), together with a second-order
process XX.  For d = 1, XX satisfies Chen's relation exactly when
XX_{t,s} - X_{t,s}^2 / 2 = g_t - g_s for a path g with g_0 = 0 (minus half
the bracket [X]; Friz & Hairer, ch. 5), so every lift is stored as g:

    XX_{t,s} = (X_t - X_s)^2 / 2 + g_t - g_s,

and g = 0 is the canonical geometric lift.  Explicit lifts are kept only for
adversarial tests; `lift_explicit` validates a supplied XX matrix in O(n^2).

The sups over grid pairs come from one kernel, `increment_sups`, for
increments v_t - v_s + sum_l p^l_s X^l_{t,s} (only the integral-remainder
certificate, damped per lag, keeps its own loop).  It runs two passes per
norm: each block of rows s gets its squared norms from one GEMM and keeps
only each row's largest, and the best lower bound over all rows leaves the
few rows, and in them the few pairs, within a rounding bound of the sup;
those alone are recomputed from direct differences, row by row and one dot
product per pair, so a value depends on its pair alone.  The driver
seminorms have that form too: by Chen's relation

    XX_{t,s} = (X_t^2/2 + g_t) - (X_s^2/2 + g_s) - X_s X_{t,s},

so (X_{t,s}, XX_{t,s}) is the increment of v = (X, X^2/2 + g) with the leg
p = (0, -X) over X, and `rough_metric` passes the difference of two such
pairs in one call; `rho`, the distance to the zero path, passes one pair.
Each driver keeps its adjacent increments (X_{t_{i+1},t_i}, XX_{t_{i+1},t_i})
once formed (`RoughDriver.adjacent`), for the convolutions over it.

Fractional Brownian paths are drawn exactly in law from the Cholesky factor
of the increment covariance, the Toeplitz matrix of the fGn autocovariance

    c_k = (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2 * (T/n)^{2H}.

The Schur algorithm factors it in O(n^2) from c alone (stable for positive
definite Toeplitz matrices: Bojanczyk, Brent, de Hoog & Sweet 1995).  The
draw dX = z @ U is summed over blocks of 64 rows of the upper factor U.  On
a key's first draw the blocks stream from the recursion through one
(64, n) buffer and U is never held; a key's second draw in a row keeps
copies of the streamed blocks as the one cached factor, the upper
triangle's row blocks (about n(n+1)/2 + 32n doubles), if they fit a byte
cap (n <= 4096 does).  Above it every draw streams.  Streamed and cached
draws are bitwise equal.
Sampled paths are (H-)-Hoelder, so the recorded exponent defaults to
gamma = H - 0.05.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (ChenViolation, ConfigError, CovarianceNotPD, GridMismatch,
                     check_positive, check_seed, is_integer, read_only_view)

CHEN_TOL = 1e-10
DEFAULT_GAMMA_SLACK = 0.05

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class RoughDriver:
    """Sampled rough path: uniform grid, X, exponent, bracket path g (None: 0).

    The arrays are stored as read-only float views, which share memory with
    the caller's float64 arrays: the caller's stay writeable, and a write to
    them shows in the driver.
    """

    times: np.ndarray
    X: np.ndarray
    gamma: float
    H: float | None = None
    g: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        t, x = read_only_view(self.times), read_only_view(self.X)
        if t.ndim != 1 or t.size < 2 or x.shape != t.shape:
            raise ConfigError("driver needs matching 1-d times and X with n >= 2 points")
        h = np.diff(t)
        if np.any(h <= 0) or not np.allclose(h, h[0], rtol=_GRID_RTOL, atol=0):
            raise ConfigError("driver grid must be uniform and increasing")
        if t[0] != 0.0:
            raise ConfigError(f"driver grids start at t = 0, got {t[0]}")
        if not np.all(np.isfinite(x)):
            raise ConfigError("driver path X must be finite")
        if x[0] != 0.0:
            raise ConfigError("rough paths are anchored at X_0 = 0")
        check_positive("Hoelder exponent gamma", self.gamma)
        g = read_only_view(np.zeros(t.size) if self.g is None else self.g)
        if g.shape != t.shape or not np.all(np.isfinite(g)) or g[0] != 0.0:
            raise ConfigError("bracket path g needs n+1 finite points with g_0 = 0")
        for name, a in (("times", t), ("X", x), ("g", g)):
            object.__setattr__(self, name, a)

    # -- grid helpers ------------------------------------------------------

    @property
    def n(self):
        return self.times.size - 1

    @property
    def T(self):
        return float(self.times[-1])

    @property
    def step(self):
        return self.times[-1] / self.n

    def index_of(self, t: float) -> int:
        """Grid index of time t; GridMismatch if t is off-grid or not finite."""
        pos = t / self.step
        i = int(round(pos)) if np.isfinite(pos) else -1
        if i < 0 or i > self.n or abs(pos - i) > 1e-8:
            raise GridMismatch(f"time {t} is not on the driver grid")
        return i

    @property
    def lift(self) -> str:
        """"geometric" when the bracket path vanishes, else "explicit"."""
        return "explicit" if np.any(self.g) else "geometric"

    # -- second-order process ----------------------------------------------

    def xx_entry(self, i, j):
        """XX_{t_j, t_i} for grid indices i <= j (integers or index arrays)."""
        return 0.5 * (self.X[j] - self.X[i]) ** 2 + (self.g[j] - self.g[i])

    @functools.cached_property
    def adjacent(self):
        """Read-only (X_{i+1} - X_i, XX_{t_{i+1}, t_i}) over the n grid steps.

        Formed once per driver, as xx_entry forms them, for the germs of
        every convolution over it.
        """
        dX = self.X[1:] - self.X[:-1]
        dXX = 0.5 * dX ** 2 + (self.g[1:] - self.g[:-1])
        return read_only_view(dX), read_only_view(dXX)

    # -- derived drivers -----------------------------------------------------

    def restricted(self, stride: int, stop: int | None = None) -> "RoughDriver":
        """Subsample every stride-th grid point (an exact restriction of the path)."""
        sel = restriction_indices(self.n, stride, stop)
        return RoughDriver(self.times[sel].copy(), self.X[sel].copy(), self.gamma,
                           self.H, self.g[sel])


def restriction_indices(n: int, stride: int, stop: int | None = None):
    """Grid indices 0, stride, ..., stop (default n) of a grid of n steps.

    GridMismatch unless the integer stride >= 1 divides the integer stop and
    0 < stop <= n.
    """
    stop_idx = n if stop is None else stop
    if not (is_integer(stride) and is_integer(stop_idx) and stride >= 1
            and 0 < stop_idx <= n and stop_idx % stride == 0):
        raise GridMismatch(f"stride {stride} does not divide the grid up to "
                           f"index {stop_idx} of {n}")
    return np.arange(0, stop_idx + 1, stride)


def lift_geometric(times, X, gamma: float) -> RoughDriver:
    """Canonical d=1 lift XX_{t,s} = X_{t,s}^2/2, evaluated on demand."""
    return RoughDriver(np.asarray(times, dtype=float).copy(),
                       np.asarray(X, dtype=float).copy(), gamma)


def lift_explicit(times, X, XX, gamma: float) -> RoughDriver:
    """Driver with g_t = XX_{t,0} - X_{t,0}^2/2 read off XX[s, t] = XX_{t,s}.

    The Chen defect of s <= u <= t is r_{t,s} - r_{u,s} - r_{t,u} for the pair
    residual r_{t,s} = XX_{t,s} - X_{t,s}^2/2 - (g_t - g_s), so rejecting
    max |r| > CHEN_TOL / 3 (ChenViolation) rejects every XX whose O(n^3) triple
    scan `chen_defect_max` exceeds CHEN_TOL.  Entries below the diagonal are
    only checked to be finite.
    """
    x = np.asarray(X, dtype=float).copy()
    xx = np.asarray(XX, dtype=float)
    if xx.shape != (x.size, x.size) or not np.all(np.isfinite(xx)):
        raise ConfigError("explicit lift needs a finite (n+1, n+1) XX array")
    g = xx[0] - 0.5 * (x - x[0]) ** 2
    resid = np.triu(xx - 0.5 * (x[None, :] - x[:, None]) ** 2
                    - (g[None, :] - g[:, None]))
    defect = float(np.max(np.abs(resid)))
    if defect > CHEN_TOL / 3:
        raise ChenViolation(f"Chen pair residual {defect:.3e} exceeds {CHEN_TOL}/3")
    return RoughDriver(np.asarray(times, dtype=float).copy(), x, gamma,
                       g=g - g[0])


def chen_defect_max(X, XX, chunk: int = 64) -> float:
    """max over grid triples s <= u <= t of |XX_{t,s} - XX_{u,s} - XX_{t,u} - X_{u,s} X_{t,u}|."""
    m = X.size
    worst = 0.0
    for s0 in range(0, m, chunk):
        s = np.arange(s0, min(s0 + chunk, m))
        d = (XX[s[:, None, None], np.arange(m)[None, None, :]]
             - XX[s[:, None, None], np.arange(m)[None, :, None]]
             - XX[np.arange(m)[None, :, None], np.arange(m)[None, None, :]]
             - (X[None, :, None] - X[s[:, None, None]])
             * (X[None, None, :] - X[None, :, None]))
        u = np.arange(m)[None, :, None]
        t = np.arange(m)[None, None, :]
        valid = (s[:, None, None] <= u) & (u <= t)
        worst = max(worst, float(np.max(np.abs(np.where(valid, d, 0.0)))))
    return worst


def driver_chen_defect_max(D: RoughDriver) -> float:
    """Chen defect scan of D's own second level XX[s, t] = D.xx_entry(s, t)
    (algebraically zero for any bracket path g; roundoff only)."""
    i = np.arange(D.n + 1)
    return chen_defect_max(D.X, D.xx_entry(i[:, None], i[None, :]))


# -- exact fBm sampling ------------------------------------------------------

_BLOCK_ROWS = 64
# The largest factor the cache keeps, in bytes: n = 4096 (65 MiB) fits,
# n = 8192 (258 MiB) streams on every draw.
_CACHE_BYTES = 128 * 2 ** 20
# The one cached factor, by (H, n, T) key, as its (k0, R) row blocks, and
# the key of the previous draw.
_factor: dict[tuple, tuple] = {}
_previous_key: tuple | None = None


def _fgn_autocovariance(H: float, n: int, T: float) -> np.ndarray:
    """c_k = E[dX_0 dX_k], k < n: the fGn autocovariance on steps of T/n.

    The second difference (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2 cancels
    for large k, so for k >= 1 it is evaluated as
    k^{2H} (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))) / 2.
    """
    two_h = 2.0 * H
    k = np.arange(1.0, n)
    with np.errstate(divide="ignore"):      # log1p(-1) = -inf at k = 1
        tail = 0.5 * k ** two_h * (np.expm1(two_h * np.log1p(1.0 / k))
                                   + np.expm1(two_h * np.log1p(-1.0 / k)))
    return np.concatenate(([1.0], tail)) * (T / n) ** two_h


def _schur_row_blocks(c):
    """Rows of the upper factor U (U^T U = toeplitz(c)) by the Schur algorithm.

    c is the first column of a symmetric positive definite Toeplitz matrix.
    The generator pair (u, v) carries column k of L = U^T in u; each step
    shifts u down, rotates v[k] to zero with a hyperbolic rotation in the
    mixed form and takes the new u as row k of U.  Yields (k0, R) with
    R = U[k0:k0+b, k0:] for blocks of b <= _BLOCK_ROWS rows, written into
    one reused (_BLOCK_ROWS, n) buffer, so R is valid until the next block.
    CovarianceNotPD if a rotation coefficient r has |r| >= 1 or is NaN.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if not c[0] > 0:
        raise CovarianceNotPD(f"Toeplitz column has non-positive diagonal {c[0]}")
    buf = np.empty((min(_BLOCK_ROWS, n), n))
    u = c / np.sqrt(c[0])
    v = np.concatenate(([0.0], u[1:]))
    scratch = np.empty(n)
    for k0 in range(0, n, _BLOCK_ROWS):
        R = buf[:min(_BLOCK_ROWS, n - k0), k0:]
        for j, row in enumerate(R):
            if k0 + j:
                u, v = u[:-1], v[1:]
                r = v[0] / u[0]
                if not abs(r) < 1.0:
                    raise CovarianceNotPD("Toeplitz covariance not positive "
                                          f"definite at column {k0 + j} of {n}")
                s = np.sqrt((1.0 - r) * (1.0 + r))
                # u = (u - r v) / s, then v = s v - r u, in place
                w = scratch[:u.size]
                np.multiply(r, v, out=w)
                np.subtract(u, w, out=u)
                np.divide(u, s, out=u)
                np.multiply(s, v, out=v)
                np.multiply(r, u, out=w)
                np.subtract(v, w, out=v)
            row[:j] = 0.0
            row[j:] = u
        yield k0, R


def _fgn_increments(H: float, n: int, T: float, z) -> np.ndarray:
    """dX = z @ U, summed over blocks of _BLOCK_ROWS rows of U.

    The blocks come from the cache if it holds this key; otherwise they
    stream from the Schur recursion, and if the previous draw had this key
    too and the blocks fit _CACHE_BYTES, copies of them replace the cached
    blocks.  The draw reads its local blocks, and the same blocks meet the
    same products either way, so the draw is bitwise equal.
    """
    global _previous_key
    key = round(H, 12), n, round(T, 12)
    blocks = _factor.get(key)
    if blocks is None:
        blocks = _schur_row_blocks(_fgn_autocovariance(H, n, T))
        # the blocks U[k0:k0+64, k0:] hold n(n+64)/2 doubles for 64 | n
        if key == _previous_key and 4 * n * (n + _BLOCK_ROWS) <= _CACHE_BYTES:
            blocks = tuple((k0, R.copy()) for k0, R in blocks)
            _factor.clear()
            _factor[key] = blocks
    _previous_key = key
    dX = np.zeros(n)
    for k0, R in blocks:
        dX[k0:] += z[k0:k0 + R.shape[0]] @ R
    return dX


def sample_fbm(H: float, n: int, T: float = 1.0, seed: int = 0,
               gamma: float | None = None) -> RoughDriver:
    """Exact-in-law fractional Brownian sample with the geometric lift.

    Deterministic given (H, n, T, seed), for an integer seed >= 0.  gamma
    defaults to H - 0.05 (DEFAULT_GAMMA_SLACK); pass gamma < H to pin the
    exponent used downstream (the path is gamma-Hoelder only below H).
    """
    if not 0.0 < H < 1.0:
        raise ConfigError(f"Hurst parameter must lie in (0,1), got {H}")
    if not is_integer(n) or n < 2:
        raise ConfigError(f"need a whole number of at least 2 grid steps, got n={n}")
    check_positive("horizon T", T)
    check_seed(seed)
    if gamma is None:
        gamma = H - DEFAULT_GAMMA_SLACK
    elif not gamma < H:
        raise ConfigError(f"an fBm path with H = {H} is gamma-Hoelder only for "
                          f"gamma < H, got gamma = {gamma}")
    z = np.random.default_rng(seed).standard_normal(n)
    x = np.concatenate(([0.0], np.cumsum(_fgn_increments(H, n, T, z))))
    return RoughDriver(np.linspace(0.0, T, n + 1), x, gamma, H)


# -- metric and shift ---------------------------------------------------------

def check_grid(a, b):
    """GridMismatch unless paths or drivers a, b share a grid: their times
    agree to 1e-12 max(1, |T|)."""
    ta, tb = a.times, b.times
    if not (ta is tb or np.array_equal(ta, tb)
            or (ta.shape == tb.shape and np.allclose(
                ta, tb, rtol=0, atol=1e-12 * max(1.0, abs(ta[-1]))))):
        raise GridMismatch(f"{type(a).__name__} and {type(b).__name__} live on "
                           "different grids")


# doubles in one (rows, m) block temporary of increment_sups: 128 KiB, glibc's
# default mmap threshold (taller blocks raise the peak RSS of full-grid norms)
_BLOCK_CELLS = 16384
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=16)     # at most 16 tables of 128 KiB
def _lag_tables(m: int, span: float, exponent: float, rows: int):
    """Read-only (lag^{2e}, F, max 1/lag^{2e}) of m grid points over span.

    lag^{2e} holds (c span / (m - 1))^{2 exponent} for c = 1 .. m - 1, and F
    is a (min(rows, m - 1), m - 1) table with F[i, c] = 1 / lag^{2e}[c - i]
    for c >= i, else 0: the pair (s0 + i, s0 + 1 + c) of any block of rows
    has lag c - i + 1.  F is a strided view of one padded row, or a
    contiguous copy when one block holds every row (at most _BLOCK_CELLS
    doubles).  Cached, so the distances of a Picard loop build them once.
    """
    dt = (np.arange(1, m) * (span / (m - 1))) ** (2.0 * exponent)
    inv = 1.0 / dt
    rows = min(rows, m - 1)
    pad = np.concatenate((np.zeros(rows - 1), inv))
    F = np.ndarray((rows, m - 1), buffer=pad, offset=(rows - 1) * pad.itemsize,
                   strides=(-pad.itemsize, pad.itemsize))
    if rows == m - 1:   # stored so that F.T, the one block's table, is C-contiguous
        F = F.T.copy().T
    return read_only_view(dt), read_only_view(F), float(np.max(inv))


def increment_sups(times, v, legs, weights, exponents) -> np.ndarray:
    """Per norm j, the sup over pairs s < t of |d_{st}|_j / (t-s)^exponents[j].

    d_{st} = v_t - v_s + sum_l p^l_s X^l_{t,s}, where v is (m, k), each of the
    L legs is a pair (p^l, X^l) of an (m, k) array and an (m,) path, and row
    j of the (r, k) `weights` holds the squared norm weights of norm j.
    Centred at row 0, u = v - v_0 and x^l = X^l - X^l_0, the increment is
    d_{st} = u_t + B_s + sum_l x^l_t p^l_s with B_s = -u_s - sum_l x^l_s p^l_s,
    so in the weights of norm j, with a = |u|^2,

        |d_{st}|^2 = a_t + |B_s|^2 + sum_l 2 x^l_t <B_s, p^l_s>
                     + sum_{l,l'} x^l_t x^l'_t <p^l_s, p^l'_s>
                     + 2 <B_s, u_t> + sum_l 2 <p^l_s, x^l_t u_t>.

    That is one dot product of length Kx = K + (L + 1) k, K = 2 + L + L(L+1)/2,
    between the t-side factors a, 1, x^l, x^l x^l', w u, w x^l u, a (Kx, m)
    matrix, and the s-side factors 1, |B|^2, 2 <B, p^l>, <p^l, p^l'>, 2 B,
    2 p^l, an (m, Kx) matrix.  Per call only the weighted parts change with
    the norm; the weighted sums of every norm come from one product per
    term.  The Gram value loses half the digits where the increment is
    small next to u, so the sups are direct values, found in two passes per
    norm.  Pass 1 takes each block of rows s (at most _BLOCK_CELLS // (m - 1)
    of them) in one GEMM and keeps only the largest Gram value top_s of each
    row.  The floor max_s (top_s - beta_s) is then a lower bound on the sup
    over all rows, and pass 2 takes the rows whose top_s clears floor -
    beta_s one at a time: one product, scaled by the lag row F[0], gives the
    row's Gram values, and each pair that clears the same bound is recomputed
    from direct differences as its own dot product, so no value depends on
    the pairs screened with it.  Once the direct sup found so far reaches the
    floor, a row and a pair must exceed it less beta_s.

    Rounding bound.  Both values sum products of two of the atoms u_t, -u_s,
    -x^l_s p^l_s and x^l_t p^l_s, whose absolute values add up to at most
    M_s = (max_{t>s} |u_t| + |u_s| + sum_l |p^l_s| (max_{t>s} |x^l_t| + |x^l_s|))^2.
    Along any product the Gram value rounds at most N_G = k + Kx + 2L + 7
    times (the most in |B_s|^2: L + 2 in each atom of B, a product, the
    weight, k - 1 sums, the factor 1, Kx - 1 sums of the one dot product,
    and the lag scaling F = 1 / (t-s)^{2e} with its own rounding), the
    direct value at most N_D = k + 2L + 6 times (L + 2 in each atom, a
    product, the weight, k - 1 sums and the division by (t-s)^{2e}).  By the
    gamma_n rule each is within (N + 1) eps M_s max F of the exact value,
    and forming a row's threshold rounds by at most eps times the largest
    Gram value, itself at most M max F of its row.  So
    beta_s = c eps M_s max F with c = N_G + N_D + 4 = 2k + Kx + 4L + 17
    exceeds every gap between Gram and direct value in row s.  None of this
    depends on the order of the sums, so a recomputed Gram value obeys it
    too, and a pair whose Gram value is below floor - beta_s cannot hold the
    sup.  A row with a non-finite Gram value bounds nothing and keeps every
    pair for the direct recompute.
    """
    v = np.asarray(v, dtype=float)
    W = np.asarray(weights, dtype=float)
    m, k = v.shape
    sups = np.zeros(W.shape[0])
    if m < 2:
        return sups
    n = m - 1
    rows = max(1, _BLOCK_CELLS // n)
    span = float(times[-1] - times[0])
    ps = [p for p, _ in legs]
    xs = [X - X[0] for _, X in legs]
    L = len(legs)
    # pairs (l, l') of the x^l x^l' terms, squares first
    quad = [(l, l) for l in range(L)] + [(l, l2) for l in range(L)
                                         for l2 in range(l + 1, L)]
    K = 2 + L + len(quad)
    Kx = K + (L + 1) * k
    u = v - v[0]
    B = -u
    for p, x in zip(ps, xs):
        B -= x[:, None] * p
    # t-side rows: a, 1, x^l, x^l x^l', then w u and w x^l u (a and the
    # weighted rows are set per norm)
    T = np.empty((Kx, m))
    T[1] = 1.0
    for l, x in enumerate(xs):
        T[2 + l] = x
    for i, (l, l2) in enumerate(quad):
        T[2 + L + i] = xs[l] * xs[l2]
    # s-side columns: 1, then |B_s|^2, 2 <B_s, p^l_s> and <p^l_s, p^l'_s>
    # (twice for l != l') in the weights of the norm, then 2 B_s, 2 p^l_s
    S = np.empty((m, Kx))
    S[:, 0] = 1.0
    np.multiply(B, 2.0, out=S[:, K:K + k])
    for l, p in enumerate(ps):
        np.multiply(p, 2.0, out=S[:, K + (l + 1) * k:K + (l + 2) * k])
    # R[i, :, j]: norm j's weighted sums of product i, which make a (i = 0)
    # and the s-side columns 1 .. K - 1; each product is formed in turn
    terms = ([(u, u, 1.0), (B, B, 1.0)] + [(B, p, 2.0) for p in ps]
             + [(ps[l], ps[l2], 1.0 if l == l2 else 2.0) for l, l2 in quad])
    R = np.empty((K, m, W.shape[0]))
    for i, (f, g, twice) in enumerate(terms):
        prod = f * g
        if twice != 1.0:
            prod *= twice
        np.matmul(prod, W.T, out=R[i])
    # max over t > s of |x^l_t|, plus |x^l_s|, for s = 0 .. m - 2
    reach = [np.maximum.accumulate(np.abs(x[:0:-1]))[::-1] + np.abs(x[:-1])
             for x in xs]
    c_eps = (2 * k + Kx + 4 * L + 17) * _EPS
    for j, (w, e) in enumerate(zip(W, exponents)):
        dt, F, max_inv = _lag_tables(m, span, float(e), rows)
        T[0] = R[0, :, j]
        S[:, 1:K] = R[1:, :, j].T
        np.multiply(u.T, w[:, None], out=T[K:K + k])
        for l, x in enumerate(xs):
            np.multiply(T[K:K + k], x, out=T[K + (l + 1) * k:K + (l + 2) * k])
        # beta_s of every row s = 0 .. m - 2
        norm_u = np.sqrt(R[0, :, j])
        lead = np.maximum.accumulate(norm_u[:0:-1])[::-1] + norm_u[:-1]
        for l, x_reach in enumerate(reach):
            lead += np.sqrt(R[2 + L + l, :-1, j]) * x_reach
        beta = (c_eps * max_inv) * lead * lead
        # pass 1: the largest Gram value of each row; one block is formed
        # transposed, (t, s), so that its row maxima reduce along columns
        if n <= rows:
            gram = T[:, 1:].T @ S[:-1].T
            gram *= F.T
            top = gram.max(axis=0)
        else:
            top = np.empty(n)
            for s0 in range(0, n, rows):
                b = min(rows, n - s0)
                sq = S[s0:s0 + b] @ T[:, s0 + 1:]
                sq *= F[:b, :n - s0]
                sq.max(axis=1, out=top[s0:s0 + b])
        low = top - beta
        floor = low.max()
        if np.isfinite(floor):
            above = np.greater_equal
            bound = floor - beta
        else:   # only the finite rows bound the sup
            above = _not_below
            with np.errstate(invalid="ignore"):
                floor = np.max(low, where=np.isfinite(low), initial=-np.inf)
                bound = floor - beta
            bound[~np.isfinite(top)] = -np.inf
        # pass 2, row by row: the Gram values of a row that clears the floor
        # less beta_s, then each pair that clears it as its own dot product;
        # once the sup found so far reaches the floor, both must beat it
        for s in np.flatnonzero(above(top, bound)).tolist():
            keep, b = above, bound[s]
            if above is np.greater_equal and sups[j] >= floor:
                keep, b = np.greater, sups[j] - beta[s]
                if not keep(top[s], b):
                    continue
            g = S[s] @ T[:, s + 1:]
            g *= F[0, :n - s]
            t = s + 1 + np.flatnonzero(keep(g, b))
            d = v[t] - v[s]
            for p, X in legs:
                d += p[s] * (X[t] - X[s])[:, None]
            direct = np.matmul((d * d)[:, None, :], w[:, None])[:, 0, 0]
            sups[j] = np.max(direct / dt[t - s - 1], initial=sups[j])
    return np.sqrt(sups)


def _not_below(a, b):
    """~(a < b): a >= b, and True where a or b is NaN."""
    return ~(a < b)


def _lifted_pair(D: RoughDriver):
    """v = (X, X^2/2 + g) and the leg p = (0, -X) over X.

    By Chen's relation v_t - v_s + p_s X_{t,s} = (X_{t,s}, XX_{t,s}).
    """
    v = np.stack((D.X, 0.5 * D.X ** 2 + D.g), axis=1)
    p = np.zeros_like(v)
    p[:, 1] = -D.X
    return v, p


def rough_metric(D1: RoughDriver, D2: RoughDriver) -> float:
    """Inhomogeneous rough path distance over the common grid at D1's exponent."""
    check_grid(D1, D2)
    v1, p1 = _lifted_pair(D1)
    v2, p2 = _lifted_pair(D2)
    g = D1.gamma
    return float(np.sum(increment_sups(D1.times, v1 - v2, ((p1, D1.X), (-p2, D2.X)),
                                       np.eye(2), (g, 2 * g))))


def rho(D: RoughDriver) -> float:
    """rho_gamma(X) = distance of the lifted path to the zero rough path."""
    v, p = _lifted_pair(D)
    return float(np.sum(increment_sups(D.times, v, ((p, D.X),), np.eye(2),
                                       (D.gamma, 2 * D.gamma))))


def shift(D: RoughDriver, tau: float) -> RoughDriver:
    """Wiener shift: X^theta_t = X_{tau+t} - X_tau on the remaining grid.

    The bracket path is re-anchored as g_{tau+t} - g_tau, which reproduces
    the second-order cocycle identity XX_{s+t,s}(w) = XX_{t,0}(theta_s w).
    """
    i = D.index_of(tau)
    x = D.X[i:] - D.X[i]
    t = D.times[i:] - D.times[i]
    if x.size < 2:
        raise GridMismatch("shift leaves fewer than two grid points")
    return RoughDriver(t.copy(), x.copy(), D.gamma, D.H, D.g[i:] - D.g[i])
