"""Controlled rough paths over a scale, their norm, and smooth composition.

A controlled path is a grid-sampled pair (y, y') at index alpha whose
increments are described to first order by the driver,

    R^y_{t,s} = y_{t,s} - y'_s X_{t,s},

with the norm

    ||y,y'|| = ||y||_{inf,alpha} + ||y'||_{inf,alpha-gamma}
             + [y']_{gamma,alpha-2gamma}
             + [R^y]_{gamma,alpha-gamma} + [R^y]_{2gamma,alpha-2gamma},

all seminorms taken over grid pairs.  Their increments have the form
v_t - v_s + p_s X_{t,s}, so they come from the screened Gram kernel
``rough_driver.increment_sups`` (also behind ``path_seminorm``): a first
pass takes each row block's squared norms in one GEMM and keeps each row's
largest, and a second pass recomputes directly only the few pairs that a
lower bound on the sup, less a per-row rounding bound, leaves.  A distance
of two paths over one driver passes one leg, (y'_Q - y'_P) over X, since
the remainder is linear in (y, y'); over two drivers it passes one leg per
path.  One body serves the norm and every distance: it checks each grid
against the first path's and strides the paths and their own drivers as
views (the Picard distance takes every stride-th point).  The same kernel
serves the driver seminorms; only the integral-remainder certificate,
whose increments are damped per lag, runs its own loop over lags.
Values may live on the interior scale (spectral coefficients) or on the
two-point boundary (Euclidean norm); the same machinery serves both.

Smooth maps into the boundary come in three closed built-ins: a linear trace
against fixed smooth weights, its tanh-squashed version (bounded derivatives,
the first supplied analytically), and a constant.  ``lift_extrapolate``, which
the studies use, is the map (y, y') -> (G(y), DG(y)[y']) at index -eta with
G = A_{-sigma} N F: one ``value_and_dvalue`` call (the squashed trace takes one
tanh for both) and one product each with the scale's (2, K) ``generator_lift``,
so G(y) is ``diffusion_rows``; on lifted data the sigma- and eta-extrapolations
agree, so one matrix serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, GridMismatch, ScaleIndexError, check_positive,
                     is_integer, read_only_view)
from .rough_driver import (RoughDriver, check_grid, increment_sups,
                           restriction_indices)
from .spectral_scale import Scale

_INDEX_TOL = 1e-9


@dataclass(frozen=True)
class ControlledPath:
    """Grid-sampled controlled rough path (y, y') at scale index alpha.

    The arrays are stored as read-only float views, which share memory with
    the caller's float64 arrays: the caller's stay writeable, and a write to
    them shows in the path.
    """

    times: np.ndarray
    y: np.ndarray
    y_prime: np.ndarray
    alpha: float
    gamma: float
    space: object = field(repr=False)

    def __post_init__(self):
        t, y, yp = map(read_only_view, (self.times, self.y, self.y_prime))
        if y.ndim != 2 or y.shape != yp.shape or y.shape[0] != t.size:
            raise ConfigError("controlled path arrays must share shape (n+1, dim)")
        for name, a in (("times", t), ("y", y), ("y_prime", yp)):
            object.__setattr__(self, name, a)

    @property
    def n(self):
        return self.times.size - 1

    def restricted(self, stride: int, stop: int | None = None) -> "ControlledPath":
        sel = restriction_indices(self.n, stride, stop)
        return ControlledPath(self.times[sel].copy(), self.y[sel].copy(),
                              self.y_prime[sel].copy(), self.alpha, self.gamma,
                              self.space)

    def __sub__(self, other: "ControlledPath") -> "ControlledPath":
        _check_compatible(self, other)
        return ControlledPath(self.times, self.y - other.y,
                              self.y_prime - other.y_prime, self.alpha,
                              self.gamma, self.space)


def constant_path(times, value, zero_prime, alpha, gamma, space) -> ControlledPath:
    """Constant controlled path y = value, y' = zero_prime (usually zeros)."""
    m = np.asarray(times).size
    return ControlledPath(np.asarray(times, dtype=float).copy(),
                          np.tile(np.asarray(value, dtype=float), (m, 1)),
                          np.tile(np.asarray(zero_prime, dtype=float), (m, 1)),
                          alpha, gamma, space)


# -- seminorms ---------------------------------------------------------------

def sup_norm(space, values, alpha) -> float:
    return float(np.max(space.norm(values, alpha)))


def path_seminorm(space, times, values, alpha, exponent) -> float:
    """[h]_exponent at the given index: sup over grid pairs."""
    return float(increment_sups(times, values, (), space.sq_weights(alpha)[None, :],
                                (exponent,))[0])


def crp_norm(P: ControlledPath, D: RoughDriver) -> float:
    """The controlled-rough-path norm of (y, y'), seminorms over all grid pairs."""
    return _difference_norm(P, None, D, D, P.gamma)


def crp_distance(P1: ControlledPath, P2: ControlledPath, D: RoughDriver,
                 stride: int = 1) -> float:
    """crp_norm of P1 - P2 over their driver D on every stride-th grid point."""
    return _difference_norm(P1, P2, D, D, P1.gamma, stride)


def _check_compatible(P: ControlledPath, Q: ControlledPath) -> None:
    """ConfigError unless P and Q share the space object and indices, as
    spectral vectors must; GridMismatch unless they share a grid."""
    if P.space is not Q.space or P.alpha != Q.alpha or P.gamma != Q.gamma:
        raise ConfigError("controlled paths live on different spaces or indices")
    check_grid(P, Q)


def _difference_norm(P: ControlledPath, Q: ControlledPath | None,
                     D: RoughDriver, E: RoughDriver, exponent: float,
                     stride: int = 1) -> float:
    """The five-term norm of P - Q on every stride-th grid point, each
    remainder over its own driver.

    P runs over D and Q over E; Q = None gives the norm of P.  The seminorms
    take the given Hoelder exponent (twice it for the second remainder term)
    and come from the Gram kernel, the derivative's without legs and both
    remainder terms' in one call with them.  When Q runs over D itself
    (E is D) the remainder is linear in (y, y'), and the difference
    y_{t,s} - (P.y' - Q.y')_s X_{t,s} takes one leg instead of two.
    ConfigError unless stride is an integer >= 1, GridMismatch unless it
    divides P.n and every path and driver lives on P's grid.
    """
    if not is_integer(stride) or stride < 1:
        raise ConfigError(f"distance stride must be an integer of at least 1, "
                          f"got {stride}")
    if P.n % stride:
        raise GridMismatch(f"stride {stride} does not divide the grid of {P.n} steps")
    check_grid(P, D)
    if Q is not None:
        _check_compatible(P, Q)
        check_grid(P, E)
    s = slice(None, None, stride)
    y, yp = P.y[s], P.y_prime[s]
    if Q is not None:
        y, yp = y - Q.y[s], yp - Q.y_prime[s]
    # R = y_{t,s} - y'_s X_{t,s}: -y' over D for P, +y' over E for Q
    if Q is None or E is D:
        legs = [(-yp, D.X[s])]
    else:
        legs = [(-P.y_prime[s], D.X[s]), (Q.y_prime[s], E.X[s])]
    g, a, sp = P.gamma, P.alpha, P.space
    # squared seminorm weights: y' at alpha - 2g, R at alpha - g and alpha - 2g
    w2 = sp.sq_weights(a - 2 * g)
    w_rem = np.stack((sp.sq_weights(a - g), w2))
    times = P.times[s]
    sem_prime = float(increment_sups(times, yp, (), w2[None, :], (exponent,))[0])
    sem_r1, sem_r2 = increment_sups(times, y, legs, w_rem, (exponent, 2 * exponent))
    return float(sup_norm(sp, y, a) + sup_norm(sp, yp, a - g)
                 + sem_prime + sem_r1 + sem_r2)


# -- smooth maps into the boundary -------------------------------------------

class SmoothMap:
    """Interface contract: value/dvalue, the derivative supplied analytically.

    domain_alpha is the scale index the map expects its argument at; delta2
    is the declared index gain, which must exceed eta + 3/2 (eta + 1 + 1/p at
    p = 2) so that the lifted image lands in the strong-solution range of the
    boundary problem.
    """

    domain_alpha: float
    delta2: float

    def value(self, y_rows):
        raise NotImplementedError

    def dvalue(self, y_rows, h_rows):
        raise NotImplementedError

    def value_and_dvalue(self, y_rows, h_rows):
        """(value(y), dvalue(y, h)); a map overrides it to share their work."""
        return self.value(y_rows), self.dvalue(y_rows, h_rows)


class LinearTrace(SmoothMap):
    """v -> (<v, w0>, <v, w1>) against fixed finite-mode smooth weights."""

    def __init__(self, w0, w1, domain_alpha, delta2):
        self.w = np.stack([np.asarray(w0, dtype=float),
                           np.asarray(w1, dtype=float)], axis=1)
        self.domain_alpha = float(domain_alpha)
        self.delta2 = float(delta2)

    def value(self, y_rows):
        return np.asarray(y_rows, dtype=float) @ self.w

    def dvalue(self, y_rows, h_rows):
        return np.asarray(h_rows, dtype=float) @ self.w


class SquashedTrace(SmoothMap):
    """Componentwise bounded squasher on top of LinearTrace.

    F(v)_i = amp * tanh((<v, w_i> + bias_i) / amp); all three derivatives are
    bounded, and the first is supplied analytically (no automatic or numerical
    differentiation).  A nonzero bias keeps the origin from being an absorbing
    equilibrium of the multiplicative noise (tanh(0) = 0 would switch the
    boundary forcing off wherever the state crosses the kernel of the trace).
    """

    def __init__(self, w0, w1, amp, domain_alpha, delta2, bias=(0.0, 0.0)):
        check_positive("squash amplitude", amp)
        self.w = np.stack([np.asarray(w0, dtype=float),
                           np.asarray(w1, dtype=float)], axis=1)
        self.amp = float(amp)
        self.bias = np.array([float(bias[0]), float(bias[1])])
        self.domain_alpha = float(domain_alpha)
        self.delta2 = float(delta2)

    def _u(self, y_rows):
        return np.asarray(y_rows, dtype=float) @ self.w + self.bias

    def value(self, y_rows):
        return self.amp * np.tanh(self._u(y_rows) / self.amp)

    def dvalue(self, y_rows, h_rows):
        return self.value_and_dvalue(y_rows, h_rows)[1]

    # sech^2 = 1 - tanh^2: cosh overflows for |u| above ~710, tanh saturates
    def value_and_dvalue(self, y_rows, h_rows):
        """F(y) and DF(y)[h] from one tanh."""
        t = np.tanh(self._u(y_rows) / self.amp)
        return (self.amp * t,
                (1.0 - t * t) * (np.asarray(h_rows, dtype=float) @ self.w))


class ConstantBoundary(SmoothMap):
    """Constant boundary datum; the additive-noise diffusion selector."""

    def __init__(self, g0, g1, domain_alpha, delta2):
        self.g = np.array([float(g0), float(g1)])
        self.domain_alpha = float(domain_alpha)
        self.delta2 = float(delta2)

    def value(self, y_rows):
        return np.tile(self.g, (np.asarray(y_rows).shape[0], 1))

    def dvalue(self, y_rows, h_rows):
        return np.zeros((np.asarray(y_rows).shape[0], 2))


def default_trace_weights(scale: Scale, gain: float = 1.0):
    """Smooth endpoint-flavored weights with mu^{-2} decay, unit l2 norm x gain.

    These are the coefficients of the once-smoothed lift of unit data at each
    endpoint, the desk analogue of a lifting operator composed with the trace.
    """
    cols = scale.lift / scale.mu[:, None]
    w = cols / np.linalg.norm(cols, axis=0, keepdims=True)
    return gain * w[:, 0], gain * w[:, 1]


def _check_domain(F: SmoothMap, P: ControlledPath):
    if not abs(F.domain_alpha - P.alpha) <= _INDEX_TOL:   # NaN fails too
        raise ScaleIndexError(
            f"map declared for index {F.domain_alpha}, path is at {P.alpha}")


def lift_extrapolate(F: SmoothMap, P: ControlledPath, scale: Scale) -> ControlledPath:
    """(A_{-sigma} N F(y), A_{-sigma} N (DF(y) o y')) at index -eta.

    Composition raises the boundary index above the strong-solution threshold,
    the lift lands at eps = 1 - eta, and the extrapolated generator drops by
    one; on lifted data A_{-eta} and A_{-sigma} share the spectral multiplier.
    """
    _check_domain(F, P)
    value, dvalue = F.value_and_dvalue(P.y, P.y_prime)
    return ControlledPath(P.times, value @ scale.generator_lift,
                          dvalue @ scale.generator_lift, scale.eps - 1.0,
                          P.gamma, scale)


def diffusion_rows(F: SmoothMap, scale: Scale, y_rows):
    """G(y) = A_{-sigma} N F(y) evaluated rowwise on raw coefficient arrays."""
    return F.value(y_rows) @ scale.generator_lift
