"""Interpolation-extrapolation scale generated by A u = a u'' + b u on (0,1).

The generator is realized spectrally: with Neumann or Dirichlet conditions and
constant coefficients a > 0 > b, its eigenvalues are -mu_k where

    mu_k = -b + a (k pi)^2    (k = 0,1,... Neumann;  k = 1,2,... Dirichlet)

and the eigenfunctions are the usual cosine/sine basis.  A scale space of
index alpha is the span of the first K eigenfunctions normed by

    |v|_alpha = (sum_k mu_k^(2 alpha) c_k^2)^(1/2),

which extends to negative alpha without completion at finite K: every space
shares one coefficient array and only the weight changes.  The floor alpha >=
-2 mirrors the two extrapolation steps the solver actually uses.

Sign convention: ``fractional_power(v, theta)`` multiplies coefficients by
mu_k^theta, i.e. it realizes (-A)^theta (positive spectrum).  The generator
itself, including every extrapolated realization (they share the spectral
multiplier), is ``apply_generator``, which flips the overall sign so that
theta = 1 reproduces A with spectrum -mu_k.

The scale also carries the boundary lift, built once: N, which solves
a u'' + b u = 0 with the scale's boundary data, has the coefficients
trace_k / mu_k (Green's identity; see ``boundary_lift``), and A_{-sigma} N,
which multiplies them by -mu_k, is -trace_k in closed form.  A scale whose
cosh/sinh boundary system is singular (kappa = sqrt(-b/a) below 1e-300 or
infinite) cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DirichletRegularityError, ScaleUnderflow, SingularLift

SCALE_FLOOR = -2.0
YOUNG_FLOOR = 0.75   # 1 - 1/(2p) at p = 2: Dirichlet noise needs gamma above it
_FLOOR_SLACK = 1e-12
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
    Dirichlet data.  Immutable; all operations on it are pure functions.
    """

    def __init__(self, cfg: ScaleConfig):
        self.eps = _validate(cfg)
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
        for arr in (self.mu, self.lift, self.generator_lift):
            arr.setflags(write=False)

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
    requests.  Instances are immutable values.
    """

    coeffs: np.ndarray
    alpha: float
    scale: Scale = field(repr=False)

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def norm(self, alpha=None):
        return self.scale.norm(self.coeffs, self.alpha if alpha is None else alpha)

    def __sub__(self, other):
        _check_same_scale(self, other)
        return SpectralVector(self.coeffs - other.coeffs, self.alpha, self.scale)


def _check_same_scale(u, v):
    if u.scale is not v.scale or u.alpha != v.alpha:
        raise ConfigError("spectral vectors live on different scales or indices")


def _validate(cfg: ScaleConfig) -> float:
    """Reject an unusable scale; return its eps."""
    if not 0 < cfg.a < np.inf:
        raise ConfigError(
            f"diffusion coefficient must be finite and positive, got a={cfg.a}")
    if not -np.inf < cfg.b < 0:
        raise ConfigError(
            f"zeroth-order coefficient must be finite and negative, got b={cfg.b}")
    kappa = np.sqrt(-cfg.b / cfg.a)   # sinh(kappa) >= kappa keeps sinh off 0 too
    if not _SINGULAR_TOL <= kappa < np.inf:
        raise SingularLift(f"cosh/sinh system singular for kappa={kappa}")
    if cfg.K < 1:
        raise ConfigError(f"need at least one mode, got K={cfg.K}")
    if not 0 < cfg.delta < np.inf:
        raise ConfigError(f"delta must be finite and positive, got {cfg.delta}")
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
    return eps


def build_scale(cfg: ScaleConfig) -> Scale:
    """Validate cfg and construct the scale (eigenvalues sorted ascending)."""
    return Scale(cfg)


def scale_norm(v: SpectralVector, alpha: float) -> float:
    """|v|_alpha, independent of the bookkeeping index stored on v."""
    return float(v.scale.norm(v.coeffs, alpha))


def fractional_power(v: SpectralVector, theta: float) -> SpectralVector:
    """(-A)^theta applied spectrally: coefficients mu_k^theta c_k at index alpha - theta.

    theta may have either sign; theta = -s inverts theta = s exactly.  The
    overall sign flag lives in apply_generator: (-A)^1 = -A.
    """
    target = v.alpha - theta
    if target < SCALE_FLOOR - _FLOOR_SLACK:
        raise ScaleUnderflow(
            f"index {target:.4f} below the extrapolation floor {SCALE_FLOOR}")
    return SpectralVector(v.coeffs * v.scale.mu ** float(theta), target, v.scale)


def apply_generator(v: SpectralVector) -> SpectralVector:
    """A v (spectrum -mu_k), uniformly for every realization A_alpha.

    The extrapolated operators A_{-eta}, A_{-sigma} share this multiplier;
    only the bookkeeping index of the argument distinguishes them.
    """
    w = fractional_power(v, 1.0)
    return SpectralVector(-w.coeffs, w.alpha, w.scale)


def generator_coefficients(scale: Scale, coeff_rows):
    """Rowwise A-action on an (..., K) coefficient array: multiply by -mu_k."""
    return -np.asarray(coeff_rows, dtype=float) * scale.mu
