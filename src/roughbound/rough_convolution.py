"""Semigroup-compensated sewing integrals and their rate certificates.

The rough convolution delivered to callers is the finest-grid compensated sum

    z_t = sum_{[u,v] in grid, v <= t} S_{t-u} (y_u X_{v,u} + y'_u XX_{v,u}),

computed per mode by the exact one-step recurrence z_{i+1} = E z_i + E xi_i
with E = e^{-mu h}; its Gubinelli derivative is the integrand path itself.
The recurrence runs as a blocked scan (``mode_filter``): a scaled cumulative
sum inside blocks of at most 32 steps, and a doubling scan that carries the
block ends across blocks; it matches the sequential recurrence to roundoff.
The distance to the ideal sewing limit is not computable exactly, so the
testable content is quantified by two certificates: dyadic level defects
(whose fitted decay slope is the sewing rate; each level sum is the same
scan over the level's partition) and the normalized integral remainder

    R_{t,s} = z_t - S_{t-s} z_s - S_{t-s}(y_s X_{t,s} + y'_s XX_{t,s}),

measured at index alpha - 2 gamma + beta against (t-s)^{3 gamma - beta}.
Splitting the sum at a grid point is exact (Chasles with S-compensation), so
z_t - S_{t-s} z_s reproduces the window sum over [s, t] identically.

The Young convolution drops the second-order term and applies when the
driver exponent exceeds 1/2.  The certificates take that first-order germ
exactly when gamma > 1/2 (index alpha - gamma + beta, exponent 2 gamma -
beta).  The remainder's increments carry the damping e^{-mu(t-s)} of their
lag, so they are not of the form v_t - v_s + p_s X_{t,s} that
`rough_driver.increment_sups` expands; its sups run in one loop over lags.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .controlled_path import ControlledPath, crp_norm
from .errors import (ConfigError, GridMismatch, RegularityError, is_integer,
                     read_only_view)
from .rough_driver import RoughDriver, check_grid, rho
from .spectral_scale import Scale

_LOG_FLOOR = 1e-300
_BLOCK = 32             # steps per block of the mode_filter scan
_MAX_EXPONENT = 600.0   # largest mu h B the scan's in-block powers may reach
_FILTER_CACHE = 8       # damping vectors whose scan constants are kept


def _require_interior(P: ControlledPath) -> Scale:
    if not isinstance(P.space, Scale):
        raise ConfigError("convolution needs an interior (spectral) path")
    return P.space


def mode_filter(damp, xi):
    """z_0 = 0, z_{i+1} = damp_k z_i + xi_i for every mode k; (n+1, K).

    The convolutions pass the damped germ e^{-mu h} xi (a rough Picard step
    forms it in two boundary columns, lifted by one (2, K) product), the drift
    convolution its exponential-trapezoid input, and a step with a drift the
    sum, so one scan serves both.  The n steps run as a blocked scan with
    a = damp.  Inside a block of B steps, z_i = a^i cumsum_j(a^{-j} xi_j)
    from a zero start; the block ends are carried across blocks by a
    doubling scan (log2 of the block count steps, factor a^B per block), and
    the carry c into a block enters its first step as a c, so that step i
    adds a^{i+1} c.  One lower-triangular matmul per block does the cumsum,
    written in place in an output of nb B + 1 rows whose first n + 1 are
    returned.  B is _BLOCK, halved only until
    a^{-(B-1)} stays below e^{_MAX_EXPONENT}; a damp that underflows to zero
    runs with B = 1, which forms no negative power.
    These constants depend on damp alone, so the last _FILTER_CACHE damping
    vectors keep theirs; the input is zero-padded to whole blocks only when
    B does not divide n.
    """
    n, k = xi.shape
    damp = np.asarray(damp, dtype=float)
    B, up, down, last, ones, tri, factor = _filter_constants(damp.tobytes())
    nb = -(-n // B)
    if nb * B == n:
        steps = xi.reshape(nb, B, k) * down
    else:
        steps = np.zeros((nb * B, k))
        steps[:n] = xi
        steps = steps.reshape(nb, B, k)
        steps *= down
    ends = ones @ steps * last
    span = 1
    while span < nb:
        ends[span:] += factor * ends[:-span]
        factor, span = factor * factor, 2 * span
    steps[1:, 0] += damp * ends[:-1]
    z = np.empty((nb * B + 1, k))
    z[0] = 0.0
    blocks = z[1:].reshape(nb, B, k)
    np.matmul(tri, steps, out=blocks)
    blocks *= up
    return z[:n + 1]


@functools.lru_cache(maxsize=_FILTER_CACHE)
def _filter_constants(key: bytes):
    """Read-only scan constants of the damping vector a with float64 bytes key.

    B, a^i and a^{-i} for i < B, a^{B-1}, ones(B), tri(B) and a^B.
    """
    damp = np.frombuffer(key)
    B = _BLOCK
    while B > 1 and np.min(damp) < np.exp(-_MAX_EXPONENT / B):
        B //= 2
    up = damp ** np.arange(B)[:, None]           # a^i, (B, K)
    up, down, ones, tri, factor = map(
        read_only_view, (up, 1.0 / up, np.ones(B), np.tri(B), damp ** B))
    return B, up, down, up[-1], ones, tri, factor


def _germ_order(gamma: float) -> int:
    """k of the sewing germ: 2 (rough, gamma <= 1/2) or 1 (Young, gamma > 1/2)."""
    return 2 if gamma <= 0.5 else 1


def _germ(P: ControlledPath, D: RoughDriver, u, v, k: int):
    """y_u X_{v,u} (+ y'_u XX_{v,u} when k = 2) for grid indices u < v."""
    xi = P.y[u] * (D.X[v] - D.X[u])[:, None]
    if k == 2:
        xi = xi + P.y_prime[u] * D.xx_entry(u, v)[:, None]
    return xi


def _convolve(P: ControlledPath, D: RoughDriver, k: int):
    """The compensated sum z on the fine grid with the order-k germ.

    The germ of every grid step comes from the driver's cached adjacent
    increments and is damped in place by e^{-mu h} before the scan.
    """
    scale = _require_interior(P)
    check_grid(P, D)
    dX, dXX = D.adjacent
    xi = P.y[:-1] * dX[:, None]
    if k == 2:
        xi += P.y_prime[:-1] * dXX[:, None]
    damp = scale.semigroup(D.step)
    xi *= damp
    return mode_filter(damp, xi)


def rough_convolve(P: ControlledPath, D: RoughDriver) -> ControlledPath:
    """Compensated rough convolution of (y, y'); Gubinelli derivative z' = y.

    The output keeps the index P.alpha; the sum runs on the fine grid.
    """
    z = _convolve(P, D, 2)
    return ControlledPath(P.times, z, P.y, P.alpha, P.gamma, P.space)


def young_convolve(P: ControlledPath, D: RoughDriver) -> ControlledPath:
    """First-order compensated sum, valid for driver exponent above 1/2.

    The result is returned with a zero Gubinelli derivative (none is needed in
    the Young regime), a read-only broadcast of 0.
    """
    if D.gamma <= 0.5:
        raise RegularityError(
            f"Young convolution needs gamma > 1/2, got {D.gamma}")
    z = _convolve(P, D, 1)
    return ControlledPath(P.times, z, np.broadcast_to(0.0, z.shape), P.alpha,
                          P.gamma, P.space)


# -- dyadic sewing defects -----------------------------------------------------

def level_sum(P: ControlledPath, D: RoughDriver, t_idx: int, level: int):
    """Compensated sum over the level-n dyadic partition of [0, t_t].

    Partition points must be grid points: t_idx must be divisible by 2^level.
    The sum is the convolution's own scan over the path and the driver
    restricted to the partition, read at t_t, so at stride 1 it is the
    convolution at t_t.  The germ is the Young one when P.gamma > 1/2.
    ConfigError unless t_idx and level are integers (not bools).
    """
    check_grid(P, D)
    for name, count in (("t_idx", t_idx), ("level", level)):
        if not is_integer(count):
            raise ConfigError(f"{name} must be an integer, got {count!r}")
    if level < 0:
        raise ConfigError(f"dyadic level must be non-negative, got {level}")
    pieces = 2 ** level
    # restriction_indices alone would take t_idx = 12 at level 3 (stride 1)
    if t_idx <= 0 or t_idx % pieces != 0:
        raise GridMismatch(
            f"level {level} partition does not fit the grid span {t_idx}")
    stride = t_idx // pieces
    return _convolve(P.restricted(stride, t_idx), D.restricted(stride, t_idx),
                     _germ_order(P.gamma))[-1]


def log2_slope(x, y) -> float:
    """Least-squares slope of log2(y) against x, y floored at 1e-300."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    ly = np.log2(np.maximum(y, _LOG_FLOOR))
    return float(x @ (ly - ly.mean()) / (x @ x))


def _dyadic_levels(levels, t_idx: int) -> np.ndarray:
    """The sorted levels of a sewing slope over the first t_idx grid steps.

    ConfigError unless there are at least two integer levels and the lowest
    is non-negative; GridMismatch unless 2^(highest + 1) divides t_idx, so
    that every partition the defects compare, the finest included, is on the
    grid.  A range is checked from its length and ends before it is listed.
    """
    seq = levels if isinstance(levels, range) else sorted(levels)
    if not (isinstance(seq, range) or all(map(is_integer, seq))):
        raise ConfigError(f"dyadic levels must be integers, got {seq!r}")
    if len(seq) < 2:
        raise ConfigError(f"a sewing slope needs at least two levels, got {len(seq)}")
    lowest, highest = sorted((int(seq[0]), int(seq[-1])))
    if lowest < 0:
        raise ConfigError(f"dyadic level must be non-negative, got {lowest}")
    t_idx, finest = int(t_idx), highest + 1
    # 2^finest > t_idx cannot divide it; test that before forming the power
    if t_idx <= 0 or finest >= t_idx.bit_length() or t_idx % 2 ** finest:
        raise GridMismatch(
            f"level {finest} partition does not fit the grid span {t_idx}")
    return np.asarray(sorted(seq), dtype=int)


@dataclass(frozen=True)
class SewingReport:
    beta: float
    levels: np.ndarray
    defects: np.ndarray
    slope: float          # fitted decay exponent: defect ~ 2^{-slope * level}


def _check_beta(beta) -> None:
    """ConfigError unless the sewing index shift beta is finite."""
    if not np.isfinite(beta):
        raise ConfigError(f"the sewing index shift beta must be finite, got {beta}")


def sewing_convergence(P: ControlledPath, D: RoughDriver, t: float, levels,
                       beta: float = 0.0) -> SewingReport:
    """Dyadic level defects |I^{P^n} - I^{P^{n+1}}| at index alpha - 2 gamma + beta.

    The fitted slope is the decay rate of the defects per level (base 2).
    In the Young regime (P.gamma > 1/2) the second-order term is dropped and
    the norm index is alpha - gamma + beta.
    """
    scale = _require_interior(P)
    _check_beta(beta)
    t_idx = D.index_of(t)
    lv = _dyadic_levels(levels, t_idx)
    idx = P.alpha - _germ_order(P.gamma) * P.gamma + beta
    sums = {int(l): level_sum(P, D, t_idx, int(l))
            for l in np.append(lv, lv[-1] + 1)}
    defects = np.array([scale.norm(sums[int(l)] - sums[int(l) + 1], idx)
                        for l in lv])
    return SewingReport(beta, lv, defects, -log2_slope(lv, defects))


# -- integral remainder certificate --------------------------------------------

@dataclass(frozen=True)
class RemainderReport:
    betas: tuple
    sup_ratios: tuple
    rho_gamma: float
    input_norm: float


def remainder_certificate(P: ControlledPath, D: RoughDriver, Z: ControlledPath,
                          stride: int = 1) -> RemainderReport:
    """sup over grid pairs of |R_{t,s}|_{alpha-kg+b} / ((t-s)^{(k+1)g-b} rho ||P||).

    Z must be the convolution of P over D on the same fine grid, and b runs
    over (0, g, 2g).  k = 2 with the rough germ; k = 1 with the Young germ,
    taken when g = P.gamma > 1/2.  The pairs are those of every stride-th
    grid point, and one pass over their lags gives all three sups: per lag,
    the largest weighted square W (r r)^T of each norm (reducing along rows is
    several times faster in numpy than (r r) W^T along columns).  ConfigError
    unless the integer stride >= 1 selects at least two grid points.
    """
    scale = _require_interior(P)
    check_grid(P, D)
    check_grid(Z, D)
    if not (is_integer(stride) and 1 <= stride <= P.n):
        raise ConfigError(f"remainder stride must be an integer in [1, {P.n}] "
                          f"to select two of {P.n + 1} grid points, got {stride}")
    g = P.gamma
    k = _germ_order(g)
    betas = (0.0, g, 2 * g)
    sel = np.arange(0, P.n + 1, stride)
    times, z = P.times[sel], Z.y[sel]
    m = times.size
    W = np.array([scale.sq_weights(P.alpha - k * g + b) for b in betas])
    per_lag = np.zeros((m - 1, W.shape[0]))
    for lag in range(1, m):
        damp = scale.semigroup(times[lag] - times[0])
        r = z[lag:] - damp * (z[:-lag] + _germ(P, D, sel[:-lag], sel[lag:], k))
        per_lag[lag - 1] = (W @ (r * r).T).max(axis=1)
    dt = np.arange(1, m)[:, None] * ((times[-1] - times[0]) / (m - 1))
    per_lag /= dt ** (2.0 * np.array([(k + 1) * g - b for b in betas]))
    sups = np.sqrt(np.max(per_lag, axis=0, initial=0.0))
    rho_gamma, input_norm = rho(D), crp_norm(P, D)
    denom_norm = rho_gamma * input_norm
    if denom_norm == 0:
        denom_norm = 1.0
    return RemainderReport(betas, tuple(sups / denom_norm), rho_gamma, input_norm)
