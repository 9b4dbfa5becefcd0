"""Batch studies: the experiments behind the CLI and the acceptance suite.

Each study is a pure function of explicit parameters returning a small report
object; the reports behind the CLI state their own pass/fail verdicts as
`Check`s.  The CLI renders reports to CSV and prints the checks, and the
acceptance tests assert on the same numbers.  Multi-seed studies check every
seed before the first draw, then run their seeds one after another, in the
order given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled_path import (ControlledPath, SmoothMap, diffusion_rows,
                              lift_extrapolate)
from .errors import ConfigError, check_seed
from .rough_convolution import (_check_beta, _dyadic_levels, _germ_order,
                                log2_slope, remainder_certificate,
                                rough_convolve, sewing_convergence)
from .rough_driver import (RoughDriver, driver_chen_defect_max,
                           rough_metric, sample_fbm)
from .solver import (PicardParams, ProblemSpec, check_gamma_prime,
                     check_problem, cocycle_defect, require_neumann,
                     solve_global)
from .spectral_scale import Scale, smoothing_constants


def _anchor_path(scale: Scale, F: SmoothMap, y0, D: RoughDriver) -> ControlledPath:
    """The anchor-type controlled path (y0 + G(y0) X_t, G(y0)) at index -eta."""
    g0 = diffusion_rows(F, scale, np.asarray(y0, float)[None, :])[0]
    rows = np.asarray(y0, float)[None, :] + np.outer(D.X, g0)
    primes = np.tile(g0, (D.n + 1, 1))
    return ControlledPath(D.times, rows, primes, scale.eps - 1.0, D.gamma, scale)


def canonical_integrand(scale: Scale, F: SmoothMap, y0, D: RoughDriver) -> ControlledPath:
    """The anchor-type controlled path (y0 + G(y0) X_t, G(y0)), lifted through F.

    For a nonlinear F this produces a genuinely controlled integrand with a
    nonvanishing second-order remainder, which is what the sewing and
    remainder studies must exercise.
    """
    return lift_extrapolate(F, _anchor_path(scale, F, y0, D), scale)


def _some_seeds(seeds) -> tuple:
    """The seeds as a tuple; ConfigError unless there is at least one and
    each is a seed that `sample_fbm` takes."""
    try:
        seeds = tuple(seeds)
    except TypeError:
        raise ConfigError(
            f"seeds must be an iterable of seeds, got {seeds!r}") from None
    if not seeds:
        raise ConfigError("a multi-seed study needs at least one seed")
    for seed in seeds:
        check_seed(seed)
    return seeds


def _geometric_mean(values):
    """Geometric mean over seeds (axis 0), values floored at 1e-300."""
    return np.exp(np.mean(np.log(np.maximum(values, 1e-300)), axis=0))


# verdict thresholds: the cocycle defect must fall by this factor per
# resolution doubling, and the stability responses must fit a line this well
_COCYCLE_MIN_RATIO = 1.5
_STABILITY_MAX_DEV = 0.20


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    ok: bool

    def line(self):
        return (f"CHECK {self.name} {'PASS' if self.ok else 'FAIL'} "
                f"value={self.value:.6e} threshold={self.threshold:.6e}")


# -- sewing rate ----------------------------------------------------------------

@dataclass(frozen=True)
class SewingStudy:
    levels: np.ndarray
    mean_defects: np.ndarray   # geometric mean over seeds per level
    slope: float               # fitted decay of the mean defects
    beta: float
    target: float

    @property
    def check(self) -> Check:
        return Check("sewing_slope", self.slope, self.target,
                     self.slope >= self.target)


def sewing_study(scale: Scale, F: SmoothMap, y0, *, H: float, n: int, T: float,
                 gamma: float, seeds, levels, beta: float = 0.0) -> SewingStudy:
    """Dyadic defect decay of the compensated sums, pooled over seeds.

    The fitted slope of the seed-averaged log2 defects is compared against
    the conservative target (3 gamma - 1 - 0.1, or 2 gamma - 1 - 0.1 in the
    Young case, gamma > 1/2).
    """
    seeds = _some_seeds(seeds)
    levels = _dyadic_levels(levels, n)     # before the first draw
    _check_beta(beta)
    check_problem(scale, F, y0, None, PicardParams())

    def one(seed):
        D = sample_fbm(H, n, T, seed=seed, gamma=gamma)
        P = canonical_integrand(scale, F, y0, D)
        return sewing_convergence(P, D, T, levels, beta=beta).defects

    all_defects = np.array([one(s) for s in seeds])
    mean = _geometric_mean(all_defects)
    target = (_germ_order(gamma) + 1) * gamma - 1.0 - 0.1
    return SewingStudy(levels, mean, -log2_slope(levels, mean), beta, target)


# -- remainder certificate refinement --------------------------------------------

@dataclass(frozen=True)
class RemainderStudy:
    betas: tuple
    coarse: tuple
    fine: tuple
    ratios: tuple     # coarse/fine sup ratios per beta

    @property
    def ok(self):
        return all(0.5 <= r <= 2.0 for r in self.ratios)


def remainder_refinement_study(scale: Scale, F: SmoothMap, y0, *, H: float,
                               n: int, T: float, gamma: float,
                               seed: int) -> RemainderStudy:
    """Normalized integral-remainder sups at n and 2n over a common pair grid.

    The pair grid takes every (n // 32)-th coarse point (every point if n < 32).
    """
    check_problem(scale, F, y0, None, PicardParams())
    D_fine = sample_fbm(H, 2 * n, T, seed=seed, gamma=gamma)
    D_coarse = D_fine.restricted(2)
    reports = []
    for D, stride_base in ((D_coarse, n), (D_fine, 2 * n)):
        P = canonical_integrand(scale, F, y0, D)
        Z = rough_convolve(P, D)
        stride = max(1, stride_base // 32)
        reports.append(remainder_certificate(P, D, Z, stride=stride))
    coarse, fine = reports
    ratios = tuple(1.0 if f == 0 else c / f
                   for c, f in zip(coarse.sup_ratios, fine.sup_ratios))
    return RemainderStudy(coarse.betas, coarse.sup_ratios, fine.sup_ratios, ratios)


@dataclass(frozen=True)
class CocycleStudy:
    resolutions: tuple
    mean_defects: tuple     # geometric mean over seeds per resolution
    ratios: tuple           # consecutive doubling ratios of the means

    @property
    def final_ratio(self):
        return self.ratios[-1]

    @property
    def check(self) -> Check:
        return Check("cocycle_refinement_ratio", self.final_ratio,
                     _COCYCLE_MIN_RATIO, self.final_ratio >= _COCYCLE_MIN_RATIO)


def cocycle_study(scale: Scale, F: SmoothMap, y0, *, H: float, master_n: int,
                  T: float, gamma: float, seeds, resolutions,
                  t: float, tau: float, drift=None,
                  picard: PicardParams = PicardParams()) -> CocycleStudy:
    """Cocycle defect versus per-call resolution, geometric mean over seeds."""
    seeds, resolutions = _some_seeds(seeds), tuple(resolutions)
    if len(resolutions) < 2:
        raise ConfigError("the cocycle study needs at least two resolutions")
    if not (t > 0 and tau > 0 and t + tau <= T * (1 + 1e-12)):  # sum roundoff
        raise ConfigError(f"the cocycle study needs t > 0, tau > 0 and "
                          f"t + tau <= T, got t={t}, tau={tau}, T={T}")
    # each flow solves over t, tau or t + tau at every resolution; check the
    # grid (to the tolerance of `RoughDriver.index_of`) before any draw
    for name, span in (("t", t), ("tau", tau), ("t + tau", t + tau)):
        steps = span * master_n / T
        if abs(steps - round(steps)) > 1e-8 or any(
                r < 1 or round(steps) % r for r in resolutions):
            raise ConfigError(
                f"the cocycle study needs {name} = {span} to be a whole number "
                f"of grid steps (n = {master_n}, T = {T}) that every "
                f"resolution in {resolutions} divides; it spans {steps:.10g}")
    check_problem(scale, F, y0, drift, picard)
    require_neumann(scale)

    def one(seed):
        D = sample_fbm(H, master_n, T, seed=seed, gamma=gamma)
        spec = ProblemSpec(scale, D, F, np.asarray(y0, float), drift, picard)
        return [cocycle_defect(spec, t, tau, r) for r in resolutions]

    defects = np.array([one(s) for s in seeds])
    mean = _geometric_mean(defects)
    ratios = tuple(float(mean[i] / mean[i + 1]) for i in range(len(mean) - 1))
    return CocycleStudy(resolutions, tuple(float(m) for m in mean), ratios)


@dataclass(frozen=True)
class StabilityStudy:
    kind: str               # "driver" or "initial"
    predictors: tuple
    responses: tuple
    slope: float
    max_rel_dev: float      # worst |response - slope*predictor| / (slope*predictor)

    @property
    def check(self) -> Check:
        return Check(f"stability_{self.kind}_linearity", self.max_rel_dev,
                     _STABILITY_MAX_DEV, self.max_rel_dev <= _STABILITY_MAX_DEV)

    @property
    def ok(self):
        return self.check.ok


def _fit_through_origin(p, r):
    p = np.asarray(p)
    r = np.asarray(r)
    slope = float(np.sum(p * r) / np.sum(p * p))
    dev = np.abs(r - slope * p) / np.maximum(np.abs(slope * p), 1e-300)
    return slope, float(np.max(dev))


def stability_study(scale: Scale, F: SmoothMap, y0, *, H: float, n: int,
                    T: float, gamma: float, seed: int, gamma_prime: float,
                    lambdas=(0.95, 0.99, 1.01, 1.05),
                    eps0=(-0.05, -0.01, 0.01, 0.05),
                    drift=None, picard: PicardParams = PicardParams()) -> tuple:
    """Linear-response fits for driver scaling and initial-data perturbations.

    Returns (driver_study, initial_study); each records the fitted slope of
    response against predictor and the worst relative deviation from the fit.
    """
    # imported at call time: perfbench's tracer wraps solver.stability_distance
    from .solver import stability_distance

    # a fit through the origin needs some nonzero predictor
    if not (any(lam != 1.0 for lam in lambdas) and any(e != 0.0 for e in eps0)):
        raise ConfigError(f"the stability study needs a lambda other than 1 and "
                          f"an eps0 other than 0, got {lambdas} and {eps0}")
    check_gamma_prime(gamma_prime, scale.gamma)
    check_problem(scale, F, y0, drift, picard)
    require_neumann(scale)
    D = sample_fbm(H, n, T, seed=seed, gamma=gamma)
    y0 = np.asarray(y0, float)
    base = solve_global(ProblemSpec(scale, D, F, y0, drift, picard)).path

    preds, resps = [], []
    for lam in lambdas:
        Dl = RoughDriver(D.times.copy(), (lam * D.X).copy(), gamma, D.H)
        sol = solve_global(ProblemSpec(scale, Dl, F, y0, drift, picard)).path
        preds.append(rough_metric(D, Dl))
        resps.append(stability_distance(sol, base, Dl, D, gamma_prime))
    slope, dev = _fit_through_origin(preds, resps)
    driver_study = StabilityStudy("driver", tuple(preds), tuple(resps), slope, dev)

    direction = np.zeros_like(y0)
    direction[: max(1, len(y0) // 4)] = 1.0
    direction /= scale.norm(direction, scale.eps - 1.0)
    preds, resps = [], []
    for e in eps0:
        y0p = y0 + e * direction
        sol = solve_global(ProblemSpec(scale, D, F, y0p, drift, picard)).path
        preds.append(abs(e))
        resps.append(stability_distance(sol, base, D, D, gamma_prime))
    slope, dev = _fit_through_origin(preds, resps)
    initial_study = StabilityStudy("initial", tuple(preds), tuple(resps), slope, dev)
    return driver_study, initial_study


# -- invariants battery ---------------------------------------------------------------

def invariants_battery(scale: Scale, *, H: float = 0.45, n: int = 64,
                       T: float = 1.0, seeds=range(10), rng_seed: int = 0) -> list:
    """Fast cross-module property battery behind `roughbound invariants`."""
    seeds = _some_seeds(seeds)
    checks = []

    worst = max(driver_chen_defect_max(sample_fbm(H, n, T, seed=s))
                for s in seeds)
    checks.append(Check("chen_geometric_defect", worst, 1e-10, worst <= 1e-10))

    rng = np.random.default_rng(rng_seed)
    worst_ratio = 0.0
    for _ in range(200):
        v = rng.standard_normal(scale.K)
        a1, a2, a3 = np.sort(rng.uniform(-2.0, 2.0, size=3))
        if a3 - a1 < 1e-6:
            continue
        lhs = scale.norm(v, a2) ** (a3 - a1)
        rhs = scale.norm(v, a1) ** (a3 - a2) * scale.norm(v, a3) ** (a2 - a1)
        worst_ratio = max(worst_ratio, lhs / rhs)
    checks.append(Check("interpolation_inequality", worst_ratio, 1 + 1e-12,
                        worst_ratio <= 1 + 1e-12))

    worst_exc = 0.0
    t_grid = np.logspace(-4, 0, 60)
    for sig in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = smoothing_constants(scale, sig, t_grid)
        worst_exc = max(worst_exc,
                        rep.measured_smoothing / rep.smoothing_bound,
                        rep.measured_continuity / rep.continuity_bound)
    checks.append(Check("semigroup_bounds", worst_exc, 1 + 1e-12,
                        worst_exc <= 1 + 1e-12))

    g, h = np.array([0.4, -1.3]), np.array([-0.7, 0.2])
    N = scale.lift
    lin_err = float(np.max(np.abs(N @ (g + h) - N @ g - N @ h)))
    checks.append(Check(f"{scale.bc}_linearity", lin_err, 1e-12, lin_err <= 1e-12))

    D = sample_fbm(H, n, T, seed=1)
    E = sample_fbm(H, n, T, seed=2)
    Fd = sample_fbm(H, n, T, seed=3)
    tri = rough_metric(D, Fd) - (rough_metric(D, E) + rough_metric(E, Fd))
    sym = abs(rough_metric(D, E) - rough_metric(E, D))
    self_d = rough_metric(D, D)
    metric_worst = max(tri, sym, self_d)
    checks.append(Check("metric_axioms", metric_worst, 1e-12,
                        metric_worst <= 1e-12))

    d1 = sample_fbm(H, n, T, seed=42)
    d2 = sample_fbm(H, n, T, seed=42)
    det = 0.0 if np.array_equal(d1.X, d2.X) else 1.0
    checks.append(Check("sampling_determinism", det, 0.0, det == 0.0))

    return checks
