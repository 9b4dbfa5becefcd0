"""Analytic semigroup S_t = e^{tA} on every scale index.

Modes are damped exactly (no time stepping): S_t acts as e^{-mu_k t} on the
k-th coefficient at any index.  The two standard parabolic bounds come with
explicit spectral constants,

    sup_t t^sigma |S_t|_{L(B_alpha, B_{alpha+sigma})} <= (sigma/e)^sigma,
    |(S_t - Id) v|_alpha <= t^sigma |v|_{alpha+sigma},

both of which ``smoothing_constants`` measures; its callers judge the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_scale import Scale, SpectralVector


def semigroup_factors(scale: Scale, t: float):
    """Per-mode damping e^{-mu_k t}."""
    return np.exp(-scale.mu * float(t))


def apply_semigroup(v: SpectralVector, t: float) -> SpectralVector:
    """S_t v: coefficients e^{-mu_k t} c_k at the same index; S_0 is Id exactly."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if t == 0:
        return v
    return SpectralVector(v.coeffs * semigroup_factors(v.scale, t), v.alpha, v.scale)


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
    if np.any(t <= 0):
        raise ValueError("t_grid must contain positive times only")
    x = scale.mu[None, :] * t
    smoothing = float(np.max(x ** sigma * np.exp(-x)))
    continuity = float(np.max(-np.expm1(-x) / x ** sigma))
    return SmoothingReport(sigma, smoothing, smoothing_bound(sigma), continuity, 1.0)
