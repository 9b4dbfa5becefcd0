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
the Dirichlet tail like mu_k^{-1/2} (finite below 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularLift
from .spectral_scale import DIRICHLET, NEUMANN, Scale, SpectralVector

_SINGULAR_TOL = 1e-300


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


def neumann_matrix(scale: Scale):
    """K x 2 matrix sending (g0, g1) to the eigenbasis coefficients of Ng."""
    if scale.bc != NEUMANN:
        raise ConfigError("neumann_map needs a scale built with Neumann bc")
    _check_regular(scale)
    return scale.boundary_values() / scale.mu[:, None]


def dirichlet_matrix(scale: Scale):
    """K x 2 matrix sending (g0, g1) to the eigenbasis coefficients of Dg."""
    if scale.bc != DIRICHLET:
        raise ConfigError("dirichlet_map needs a scale built with Dirichlet bc")
    _check_regular(scale)
    d = scale.boundary_derivatives()
    m = np.empty((scale.K, 2))
    m[:, 0] = scale.cfg.a * d[:, 0] / scale.mu
    m[:, 1] = -scale.cfg.a * d[:, 1] / scale.mu
    return m


def _check_regular(scale: Scale):
    k = _kappa(scale)
    if not np.isfinite(k) or abs(np.sinh(k)) < _SINGULAR_TOL or k < _SINGULAR_TOL:
        raise SingularLift(f"cosh/sinh system singular for kappa={k}")


def lift_matrix(scale: Scale):
    return neumann_matrix(scale) if scale.bc == NEUMANN else dirichlet_matrix(scale)


def neumann_map(g: BoundaryVector, scale: Scale) -> SpectralVector:
    """Coefficients of the solution with conormal data g, at index eps."""
    return SpectralVector(neumann_matrix(scale) @ g.values, scale.eps, scale)


def dirichlet_map(g: BoundaryVector, scale: Scale) -> SpectralVector:
    """Coefficients of the solution with trace data g, at index eps_D."""
    return SpectralVector(dirichlet_matrix(scale) @ g.values, scale.eps, scale)


def neumann_profile(g: BoundaryVector, scale: Scale, x):
    """Untruncated closed-form Neumann solution evaluated at points x."""
    _check_regular(scale)
    k = _kappa(scale)
    x = np.asarray(x, dtype=float)
    denom = scale.cfg.a * k * np.sinh(k)
    return (g.g0 * np.cosh(k * (1.0 - x)) + g.g1 * np.cosh(k * x)) / denom


def dirichlet_profile(g: BoundaryVector, scale: Scale, x):
    """Untruncated closed-form Dirichlet solution evaluated at points x."""
    _check_regular(scale)
    k = _kappa(scale)
    x = np.asarray(x, dtype=float)
    return (g.g0 * np.sinh(k * (1.0 - x)) + g.g1 * np.sinh(k * x)) / np.sinh(k)


def lift_operator_norm(scale: Scale, alpha: float) -> float:
    """Operator norm of the lift from (R^2, euclidean) into B_alpha."""
    m = lift_matrix(scale) * scale.mu[:, None] ** float(alpha)
    return float(np.linalg.norm(m, 2))

