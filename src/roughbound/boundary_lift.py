"""Neumann and Dirichlet lifting: solution operators of a u'' + b u = 0.

The boundary of (0,1) is two points, so every boundary Besov norm collapses
to the Euclidean norm on R^2.  Both solution operators are known in closed
form via cosh/sinh with kappa = sqrt(-b/a), and their eigenbasis coefficients
follow from Green's identity applied to the truncated basis:

    Neumann (conormal data -a u'(0) = g0, a u'(1) = g1):
        c_k = (g0 e_k(0) + g1 e_k(1)) / mu_k
    Dirichlet (trace data u(0) = g0, u(1) = g1):
        c_k = a (g0 e_k'(0) - g1 e_k'(1)) / mu_k

so the Neumann tail decays like mu_k^{-1} (norms finite below index 3/4) and
the Dirichlet tail like mu_k^{-1/2} (finite below 1/4).  The scale builds
these coefficients once, as ``Scale.lift``, and refuses a singular cosh/sinh
system; this module applies them to boundary data and evaluates the
untruncated closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectral_scale import DIRICHLET, NEUMANN, Scale, SpectralVector


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


def _kappa(scale: Scale):
    return np.sqrt(-scale.cfg.b / scale.cfg.a)


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


def neumann_profile(g: BoundaryVector, scale: Scale, x):
    """Untruncated closed-form Neumann solution evaluated at points x."""
    k = _kappa(scale)
    x = np.asarray(x, dtype=float)
    denom = scale.cfg.a * k * np.sinh(k)
    return (g.g0 * np.cosh(k * (1.0 - x)) + g.g1 * np.cosh(k * x)) / denom


def dirichlet_profile(g: BoundaryVector, scale: Scale, x):
    """Untruncated closed-form Dirichlet solution evaluated at points x."""
    k = _kappa(scale)
    x = np.asarray(x, dtype=float)
    return (g.g0 * np.sinh(k * (1.0 - x)) + g.g1 * np.sinh(k * x)) / np.sinh(k)


def lift_operator_norm(scale: Scale, alpha: float) -> float:
    """Operator norm of the lift from (R^2, euclidean) into B_alpha."""
    m = scale.lift * scale.mu[:, None] ** float(alpha)
    return float(np.linalg.norm(m, 2))

