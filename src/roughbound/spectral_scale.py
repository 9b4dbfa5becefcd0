"""Interpolation-extrapolation scale generated by A u = a u'' + b u on (0,1).

The generator is realized spectrally: with Neumann or Dirichlet conditions and
constant coefficients a > 0 > b, its eigenvalues are -mu_k where

    mu_k = -b + a (k pi)^2    (k = 0,1,... Neumann;  k = 1,2,... Dirichlet)

and the eigenfunctions are the usual cosine/sine basis.  A scale space of
index alpha is the span of the first K eigenfunctions normed by

    |v|_alpha = (sum_k mu_k^(2 alpha) c_k^2)^(1/2),

which extends to negative alpha without completion at finite K: every space
shares one coefficient array and only the weight changes.

Sign convention: (-A)^theta multiplies coefficients by mu_k^theta (positive
spectrum), and A itself, including every extrapolated realization (they
share the spectral multiplier), multiplies them by -mu_k.

The scale also carries the rest of the operator's spectral calculus.  The
boundary of (0,1) is two points, so every boundary Besov norm collapses to
the Euclidean norm on R^2.  Both solution operators of a u'' + b u = 0 are
known in closed form via cosh/sinh with kappa = sqrt(-b/a), and their
eigenbasis coefficients follow from Green's identity applied to the
truncated basis:

    Neumann (conormal data -a u'(0) = g0, a u'(1) = g1):
        c_k = (g0 e_k(0) + g1 e_k(1)) / mu_k
    Dirichlet (trace data u(0) = g0, u(1) = g1):
        c_k = a (g0 e_k'(0) - g1 e_k'(1)) / mu_k

so the Neumann tail decays like mu_k^{-1} (norms finite below index 3/4) and
the Dirichlet tail like mu_k^{-1/2} (finite below 1/4).  These are N, built
once as ``Scale.lift``; A_{-sigma} N multiplies them by -mu_k.  A scale whose
cosh/sinh system is singular (kappa below 1e-300 or infinite) cannot be built.

The semigroup S_t = e^{tA} damps modes exactly: e^{-mu_k t} on the k-th
coefficient at any index, formed only by ``Scale.semigroup``.  The two
standard parabolic bounds come with explicit spectral constants,

    sup_t t^sigma |S_t|_{L(B_alpha, B_{alpha+sigma})} <= (sigma/e)^sigma,
    |(S_t - Id) v|_alpha <= t^sigma |v|_{alpha+sigma},

both of which ``smoothing_constants`` measures; its callers judge the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DirichletRegularityError, SingularLift,
                     check_positive, is_integer, read_only_view)

YOUNG_FLOOR = 0.75   # 1 - 1/(2p) at p = 2: Dirichlet noise needs gamma above it
_SINGULAR_TOL = 1e-300

NEUMANN = "neumann"
DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class ScaleConfig:
    """Coefficients, truncation and exponents defining one scale.

    a: diffusion coefficient (> 0, constant).
    b: zeroth-order coefficient (< 0; b <= -1 makes every mu_k >= 1 and the
       scale norms monotone in alpha).
    K: number of retained eigenmodes.
    bc: "neumann" or "dirichlet".
    delta: small positive offset in eps = 3/4 - delta (Neumann) or
       eps = 1/4 - delta (Dirichlet), the L^2 (p = 2) values of
       1/2 + 1/(2p) - delta and 1/(2p) - delta.
    gamma: driver Hoelder exponent; (1/3, 1/2] for the rough Neumann case,
       (3/4, 1) for the Young/Dirichlet case.
    """

    a: float = 1.0
    b: float = -1.0
    K: int = 32
    bc: str = NEUMANN
    delta: float = 0.05
    gamma: float = 0.40


class Scale:
    """Eigenvalues, eigenfunction evaluators, derived exponents and the lift.

    ``lift`` (K, 2) is N and ``generator_lift`` (2, K) is A_{-sigma} N, with
    trace_k = (e_k(0), e_k(1)) for Neumann and a (e_k'(0), -e_k'(1)) for
    Dirichlet data; ``kappa`` = sqrt(-b/a) is the cosh/sinh wavenumber.
    Immutable; all operations on it are pure functions.
    """

    def __init__(self, cfg: ScaleConfig):
        self.eps, self.kappa = _validate(cfg)
        self.cfg = cfg
        self.bc = cfg.bc
        self.K = cfg.K
        self.gamma = cfg.gamma
        if cfg.bc == NEUMANN:
            self.wavenumbers = np.arange(cfg.K)
        else:
            self.wavenumbers = np.arange(1, cfg.K + 1)
        self.eta = 1.0 - self.eps
        self.sigma = self.eta + cfg.gamma
        self.mu = -cfg.b + cfg.a * (self.wavenumbers * np.pi) ** 2
        if cfg.bc == NEUMANN:
            trace = self.basis(np.array([0.0, 1.0])).T
        else:
            d0 = np.sqrt(2.0) * self.wavenumbers * np.pi
            d1 = d0 * np.cos(self.wavenumbers * np.pi)
            trace = cfg.a * np.stack([d0, -d1], axis=1)
        self.lift = trace / self.mu[:, None]
        self.generator_lift = -trace.T
        self.mu, self.lift, self.generator_lift = map(
            read_only_view, (self.mu, self.lift, self.generator_lift))

    # -- basis -----------------------------------------------------------

    def basis(self, x):
        """Evaluate the K orthonormal eigenfunctions at points x: (len(x), K)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.wavenumbers[None, :]
        if self.bc == NEUMANN:
            vals = np.sqrt(2.0) * np.cos(k * np.pi * x[:, None])
            vals[:, self.wavenumbers == 0] = 1.0
        else:
            vals = np.sqrt(2.0) * np.sin(k * np.pi * x[:, None])
        return vals

    # -- semigroup -------------------------------------------------------

    def semigroup(self, t):
        """Per-mode damping e^{-mu_k t}: shape t.shape + (K,)."""
        return np.exp(-np.multiply.outer(t, self.mu))

    # -- norms -----------------------------------------------------------

    def norm(self, coeffs, alpha):
        """|v|_alpha for coefficient arrays of shape (..., K)."""
        c = np.asarray(coeffs, dtype=float)
        w = self.mu ** float(alpha)
        return np.sqrt(np.sum((c * w) ** 2, axis=-1))

    def sq_weights(self, alpha):
        """Squared norm weights: |v|_alpha^2 = sum_k sq_weights(alpha)_k c_k^2."""
        return self.mu ** (2.0 * float(alpha))

    def vector(self, coeffs, alpha):
        return SpectralVector(np.asarray(coeffs, dtype=float).copy(), float(alpha), self)

    def __repr__(self):
        return (f"Scale(bc={self.bc!r}, K={self.K}, eps={self.eps:.4f}, "
                f"eta={self.eta:.4f}, sigma={self.sigma:.4f}, gamma={self.gamma})")


@dataclass(frozen=True)
class SpectralVector:
    """Element of a scale space: eigenbasis coefficients plus a scale index.

    The index is bookkeeping; norms are evaluated at whatever alpha the caller
    requests.  Instances are immutable values: the coefficients are stored as
    a read-only float view, which shares memory with a caller's float64 array
    (that array stays writeable, and a write to it shows in the vector).
    """

    coeffs: np.ndarray
    alpha: float
    scale: Scale = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", read_only_view(self.coeffs))

    def norm(self, alpha=None):
        return self.scale.norm(self.coeffs, self.alpha if alpha is None else alpha)

    def __sub__(self, other):
        _check_same_scale(self, other)
        return SpectralVector(self.coeffs - other.coeffs, self.alpha, self.scale)


def _check_same_scale(u, v):
    if u.scale is not v.scale or u.alpha != v.alpha:
        raise ConfigError("spectral vectors live on different scales or indices")


def _validate(cfg: ScaleConfig) -> tuple:
    """Reject an unusable scale; return its (eps, kappa)."""
    check_positive("diffusion coefficient a", cfg.a)
    if not -np.inf < cfg.b < 0:
        raise ConfigError(
            f"zeroth-order coefficient must be finite and negative, got b={cfg.b}")
    kappa = np.sqrt(-cfg.b / cfg.a)   # sinh(kappa) >= kappa keeps sinh off 0 too
    if not _SINGULAR_TOL <= kappa < np.inf:
        raise SingularLift(f"cosh/sinh system singular for kappa={kappa}")
    if not (is_integer(cfg.K) and cfg.K >= 1):
        raise ConfigError(
            f"need a whole number of at least one mode, got K={cfg.K!r}")
    check_positive("delta", cfg.delta)
    if cfg.bc == NEUMANN:
        if not (1.0 / 3.0 < cfg.gamma <= 0.5):
            raise ConfigError(
                f"rough Neumann case needs gamma in (1/3, 1/2], got {cfg.gamma}")
        eps, name, hint = 0.75 - cfg.delta, "eps", "shrink delta"
    elif cfg.bc == DIRICHLET:
        if not (YOUNG_FLOOR < cfg.gamma < 1.0):
            raise DirichletRegularityError(
                f"Dirichlet/Young case needs gamma in ({YOUNG_FLOOR}, 1), "
                f"got {cfg.gamma}")
        eps, name = 0.25 - cfg.delta, "eps_D"
        hint = f"shrink delta below gamma-{YOUNG_FLOOR}"
    else:
        raise ConfigError(f"unknown boundary condition tag {cfg.bc!r}")
    if eps <= 1.0 - cfg.gamma:
        raise ConfigError(f"{name}={eps:.4f} must exceed "
                          f"1-gamma={1 - cfg.gamma:.4f}; {hint}")
    return eps, kappa


def build_scale(cfg: ScaleConfig) -> Scale:
    """Validate cfg and construct the scale (eigenvalues sorted ascending)."""
    return Scale(cfg)


# -- boundary lift ------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryVector:
    """Boundary data g = (g0, g1)."""

    g0: float
    g1: float

    def __post_init__(self):
        if not (np.isfinite(self.g0) and np.isfinite(self.g1)):
            raise ConfigError("boundary data must be finite")

    @property
    def values(self):
        return np.array([self.g0, self.g1])

    def norm(self):
        return float(np.hypot(self.g0, self.g1))


class BoundarySpace:
    """Value space for boundary-valued paths: Euclidean norm at every index."""

    dim = 2

    def norm(self, values, alpha=None):
        return np.sqrt(np.sum(np.asarray(values, dtype=float) ** 2, axis=-1))

    def sq_weights(self, alpha=None):
        return np.ones(self.dim)

    def __repr__(self):
        return "BoundarySpace()"


BOUNDARY = BoundarySpace()


def _lift(g: BoundaryVector, scale: Scale, bc: str, name: str) -> SpectralVector:
    if scale.bc != bc:
        raise ConfigError(f"{name} needs a scale built with {bc.capitalize()} bc")
    return SpectralVector(scale.lift @ g.values, scale.eps, scale)


def neumann_map(g: BoundaryVector, scale: Scale) -> SpectralVector:
    """Coefficients of the solution with conormal data g, at index eps."""
    return _lift(g, scale, NEUMANN, "neumann_map")


def dirichlet_map(g: BoundaryVector, scale: Scale) -> SpectralVector:
    """Coefficients of the solution with trace data g, at index eps_D."""
    return _lift(g, scale, DIRICHLET, "dirichlet_map")


# -- semigroup ----------------------------------------------------------------

def smoothing_bound(sigma: float) -> float:
    """sup_{x>0} x^sigma e^{-x} = (sigma/e)^sigma, with the value 1 at sigma=0."""
    if sigma == 0:
        return 1.0
    return (sigma / np.e) ** sigma


@dataclass(frozen=True)
class SmoothingReport:
    sigma: float
    measured_smoothing: float   # sup t^sigma mu^sigma e^{-mu t}
    smoothing_bound: float      # (sigma/e)^sigma
    measured_continuity: float  # sup (1 - e^{-mu t}) / (mu t)^sigma
    continuity_bound: float     # 1


def smoothing_constants(scale: Scale, sigma: float, t_grid) -> SmoothingReport:
    """Measure the parabolic operator-norm constants over t_grid and all modes.

    The operators are diagonal, so the operator norm between B_alpha and
    B_{alpha+sigma} is a sup over modes and does not depend on alpha.  The
    report holds each measured constant next to its exact spectral bound.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0,1], got {sigma}")
    t = np.asarray(t_grid, dtype=float)[:, None]
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("t_grid must contain finite positive times only")
    x = scale.mu[None, :] * t
    smoothing = float(np.max(x ** sigma * np.exp(-x)))
    continuity = float(np.max(-np.expm1(-x) / x ** sigma))
    return SmoothingReport(sigma, smoothing, smoothing_bound(sigma), continuity, 1.0)
