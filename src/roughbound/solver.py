"""Picard solver for the reformulated equation and its verification probes.

The boundary-noise problem is solved in its reformulated shape

    dy = (A y + f(y)) dt + A_{-sigma} N F(y) dX,    y(0) = y0 in B_{-eta},

as the fixed point of

    Phi(u, u') = (S y0 + int S f(u) dr + int S A_{-sigma} N F(u) dX,
                  A_{-sigma} N F(u)),

iterated from the anchor (S y0 + int S G(y0) dX, G(y0)) on controlled-path
balls.  Dirichlet boundary noise is handled in the Young regime (driver
exponent above 3/4, the value of 1 - 1/(2p) at p = 2) with the first-order
convolution and a plain Hoelder-norm Picard iteration; a drift needs
gamma < 1/2, so the Young regime runs without one.

Both regimes run on one window engine, as the paper's global existence
argument does: a Picard loop whose per-step contraction ratio is estimated
over the gap between its last two evaluated iterate distances, and which
evaluates the next distance only near where the a-priori estimate d q^k of
the Banach fixed-point theorem falls below the tolerance; a halving loop that
shortens the window until the loop contracts (the fixed-point argument only
certifies some small window); and a concatenation loop that restarts each
window from the last state on the shifted driver, with a no-blow-up monitor
fitted to ||y|| <= M1 r e^{M2 t}.  A regime supplies only its per-window Picard step,
distance and starting point; the rough solution's Gubinelli derivative is
re-anchored to G(y) on every window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# lift_extrapolate, unused here, stays importable for perfbench's tracer
from .controlled_path import (ControlledPath, SmoothMap, _difference_norm,  # noqa: F401
                              constant_path, crp_distance, diffusion_rows,
                              lift_extrapolate, path_seminorm, sup_norm)
from .errors import (AprioriBoundViolation, ConfigError, ContractionFailure,
                     DirichletRegularityError, GridMismatch, check_positive,
                     is_integer, read_only_view)
from .rough_convolution import mode_filter, rough_convolve, young_convolve
from .rough_driver import RoughDriver, shift
from .spectral_scale import DIRICHLET, NEUMANN, YOUNG_FLOOR, Scale

_BLOWUP_FACTOR = 1e8
_NONFINITE = "a Picard iterate or distance was non-finite in every window tried"
# the Picard distance schedule: after an evaluation at step m, skip this share
# of the steps the a-priori estimate needs to reach tol, and never more than m
_SCHEDULE_SHARE = 0.8


# -- drift selectors -----------------------------------------------------------

class DriftMap:
    """Lipschitz drift with a declared index gap."""

    delta1: float

    def value(self, y_rows):
        raise NotImplementedError


class LinearDrift(DriftMap):
    """f(y) = c y; Lipschitz constant |c|."""

    def __init__(self, c: float, delta1: float):
        self.c = float(c)
        self.delta1 = float(delta1)

    def value(self, y_rows):
        return self.c * np.asarray(y_rows, dtype=float)


class SmoothBoundedDrift(DriftMap):
    """Per-mode saturating drift f(y)_k = amp tanh(c_k / amp); 1-Lipschitz."""

    def __init__(self, amp: float, delta1: float):
        check_positive("drift amplitude", amp)
        self.amp = float(amp)
        self.delta1 = float(delta1)

    def value(self, y_rows):
        return self.amp * np.tanh(np.asarray(y_rows, dtype=float) / self.amp)


# -- problem description ---------------------------------------------------------

@dataclass(frozen=True)
class PicardParams:
    tol: float = 1e-9
    max_iter: int = 80
    max_halvings: int = 10

    def __post_init__(self):
        check_positive("Picard tol", self.tol)
        counts = (self.max_iter, self.max_halvings)
        if not all(is_integer(c) and c >= 0 for c in counts):
            raise ConfigError("max_iter and max_halvings must be non-negative "
                              f"integers, got {counts}")


def check_problem(scale: Scale, diffusion: SmoothMap, y0, drift, picard) -> None:
    """ConfigError unless the parts of a problem that need no driver fit
    (`ProblemSpec`'s rules, which the CLI and the studies run before a draw)."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (scale.K,) or not np.all(np.isfinite(y0)):
        raise ConfigError("y0 must be a finite coefficient vector of length K")
    if not isinstance(picard, PicardParams):
        raise ConfigError("picard must be a PicardParams")
    # the rough step feeds the diffusion's two boundary columns straight into
    # its germ, and the drift's K columns into the trapezoid input
    for name, f, shape in (("diffusion", diffusion, (1, 2)),
                           ("drift", drift, (1, scale.K))):
        if f is None:
            continue
        try:
            value = np.asarray(f.value(y0[None, :]), dtype=float)
        except ValueError as exc:   # e.g. trace weights of another length
            raise ConfigError(f"the {name} map fails at y0 of shape "
                              f"{(1, scale.K)}, which needs a {shape} value: "
                              f"{exc}") from exc
        if value.shape != shape:
            raise ConfigError(f"the {name} map has a {value.shape} value at y0, "
                              f"needs {shape}")
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"the {name} map is non-finite at y0")
    g = scale.gamma
    if drift is not None and g >= 0.5:   # [2 gamma, 1) is empty
        raise ConfigError(f"a drift needs gamma < 1/2, got gamma={g}")
    if drift is not None and not (2 * g <= drift.delta1 < 1.0):
        raise ConfigError(
            f"drift index gap delta1={drift.delta1} outside [2 gamma, 1)"
            f" = [{2 * g}, 1)")
    floor = scale.eta + 1.5
    if not floor < diffusion.delta2 < np.inf:
        raise ConfigError(
            f"diffusion index gain delta2={diffusion.delta2} must be "
            f"finite and exceed eta + 3/2 = {floor:.4f}")
    alpha = scale.eps - 1.0   # -eta, where solutions live
    if abs(diffusion.domain_alpha - alpha) > 1e-9:
        raise ConfigError(
            f"diffusion map declared at index {diffusion.domain_alpha}, "
            f"solutions live at {alpha:.4f}")


def require_neumann(scale: Scale) -> None:
    """ConfigError unless the rough solver can run on the scale."""
    if scale.bc != NEUMANN:
        raise ConfigError("the rough solver runs on the Neumann scale; "
                          "use solve_young_dirichlet for Dirichlet noise")


@dataclass(frozen=True)
class ProblemSpec:
    """Operator scale, driver, coefficients and solver knobs for one problem.

    The horizon is the driver's; restrict the driver for a shorter one.
    """

    scale: Scale
    driver: RoughDriver
    diffusion: SmoothMap
    y0: np.ndarray
    drift: DriftMap | None = None
    picard: PicardParams = field(default_factory=PicardParams)

    def __post_init__(self):
        check_problem(self.scale, self.diffusion, self.y0, self.drift, self.picard)
        if abs(self.scale.gamma - self.driver.gamma) > 1e-9:
            raise ConfigError(
                f"scale gamma {self.scale.gamma} and driver gamma "
                f"{self.driver.gamma} must agree")

    @property
    def solution_alpha(self):
        return self.scale.eps - 1.0  # -eta

    @property
    def horizon(self):
        return self.driver.T


@dataclass(frozen=True)
class LocalSolveResult:
    path: ControlledPath
    iterations: int
    contraction: float  # per-step ratio over the last gap between evaluated distances


@dataclass(frozen=True)
class GlobalSolveResult:
    path: ControlledPath
    window_ends: tuple
    iterations: int
    apriori_m1: float
    apriori_m2: float


# -- shared pieces ---------------------------------------------------------------

def drift_convolve(scale: Scale, times, f_rows, germ=None):
    """int_0^{t_i} S_{t_i - r} f_r dr with f piecewise linear between nodes.

    The mode factor e^{-mu (t-r)} is integrated in closed form against the
    linear interpolant (the exact exponential-trapezoid weights of the left
    and right nodal values), so the rule is exact for constant f.  A germ,
    the (n, K) damped rough germ e^{-mu h} xi of the same grid, has the
    trapezoid input w_l f_i + w_r f_{i+1} added to it in place, and the one
    scan of the sum returns the rough and the drift convolution together.
    GridMismatch unless f_rows has a row per time and the germ a row per
    step, each with a column per mode.
    """
    times = np.asarray(times, dtype=float)
    f_rows = np.asarray(f_rows, dtype=float)
    n = times.size - 1
    if f_rows.shape != (n + 1, scale.K) or (
            germ is not None and germ.shape != (n, scale.K)):
        raise GridMismatch(f"drift rows {f_rows.shape} or germ are not on the "
                           f"{n}-step grid of {scale.K} modes")
    damp, w_left, w_right = _trapezoid_weights(scale, (times[-1] - times[0]) / n)
    if germ is None:
        xi = w_left * f_rows[:-1]
    else:
        xi = germ
        xi += w_left * f_rows[:-1]
    xi += w_right * f_rows[1:]
    return mode_filter(damp, xi)


@functools.lru_cache(maxsize=8)      # one entry per (scale, step) in use
def _trapezoid_weights(scale: Scale, h: float):
    """Read-only (e^{-mu h}, left weights, right weights) of one step h."""
    x = scale.mu * h
    damp = scale.semigroup(h)
    w_right = h * (x + np.expm1(-x)) / x ** 2
    w_left = h * (-np.expm1(-x) - x * damp) / x ** 2
    return tuple(map(read_only_view, (damp, w_left, w_right)))


def _check_stride(n: int) -> int:
    """Largest divisor of n that keeps at least 128 grid intervals (1 if none)."""
    return max((d for d in range(1, n // 128 + 1) if n % d == 0), default=1)


def _rough_window(spec: ProblemSpec, D: RoughDriver, y0):
    """Rough regime on one window: (step, distance, start) of the Picard loop."""
    scale, alpha, g = spec.scale, spec.solution_alpha, spec.scale.gamma
    require_neumann(scale)
    stride = _check_stride(D.n)
    base = scale.semigroup(D.times) * y0
    lift, damp = scale.generator_lift, scale.semigroup(D.step)
    damped_lift, (dX, dXX) = lift * damp, D.adjacent

    def step(u):  # one application of Phi; the derivative component is G(u)
        # the germ F(y) X + DF(y)[y'] XX in the two boundary coordinates
        value, dvalue = spec.diffusion.value_and_dvalue(u.y, u.y_prime)
        xb = value[:-1] * dX[:, None]
        xb += dvalue[:-1] * dXX[:, None]
        xi = xb @ damped_lift   # lifted and damped: e^{-mu h} A_{-sigma} N
        if spec.drift is None:
            rows = mode_filter(damp, xi)
        else:  # one scan of the rough germ plus the drift's trapezoid input
            rows = drift_convolve(scale, D.times, spec.drift.value(u.y), germ=xi)
        rows += base
        return ControlledPath(D.times, rows, value @ lift, alpha, g, scale)

    # the paper's anchor (S y0 + int S G(y0) dX, G(y0))
    g0 = diffusion_rows(spec.diffusion, scale, y0[None, :])[0]
    const = constant_path(D.times, g0, np.zeros_like(g0), alpha, g, scale)
    anchor = ControlledPath(D.times, base + rough_convolve(const, D).y, const.y,
                            alpha, g, scale)
    return step, lambda a, b: crp_distance(a, b, D, stride), anchor


def _young_distance(P1: ControlledPath, P2: ControlledPath, stride: int) -> float:
    """Hoelder norm of P1 - P2 at P1's indices on every stride-th grid point."""
    diff = P1.y[::stride] - P2.y[::stride]
    a, g, space = P1.alpha, P1.gamma, P1.space
    return (sup_norm(space, diff, a)
            + path_seminorm(space, P1.times[::stride], diff, a - g, g))


def _young_window(spec: ProblemSpec, D: RoughDriver, y0):
    """Young regime on one window: (step, distance, start) in the Hoelder norm."""
    scale, eta, g = spec.scale, spec.scale.eta, D.gamma
    stride = _check_stride(D.n)
    base = scale.semigroup(D.times) * y0
    zero = np.zeros_like(base)   # every path holds a read-only view of it

    def path(rows):  # no Gubinelli derivative in the Young regime
        return ControlledPath(D.times, rows, zero, -eta, g, scale)

    def step(u):
        g_rows = diffusion_rows(spec.diffusion, scale, u.y)
        return path(base + young_convolve(path(g_rows), D).y)

    return step, lambda a, b: _young_distance(a, b, stride), path(base)


# -- the window engine -------------------------------------------------------------

def _iterate(spec: ProblemSpec, step, distance, u0):
    """Picard loop from u0: (fixed point or None, steps run, q, last distance).

    Distances are evaluated at steps 1 and 2 and then on a schedule: after an
    evaluated distance d at step m, q is the per-step ratio over the gap back to
    the previous evaluated distance.  While q >= 1 every step is evaluated;
    otherwise the next evaluation comes after min(m, max(1, floor(0.8 log(tol/d)
    / log q))) steps, clamped to max_iter.  A step whose distance is skipped
    still checks that its iterate is finite.  The loop stops at the first
    evaluated distance below tol, at a non-finite iterate or distance, or after
    two rising evaluated distances in a row (a rise across a gap counts once).
    """
    tol, max_iter = spec.picard.tol, spec.picard.max_iter
    u, prev, q, dist, rising = u0, 0.0, 0.0, 0.0, 0
    last = due = 1   # steps of the last evaluated distance and of the next
    for m in range(1, max_iter + 1):
        nxt = step(u)
        if m < due:
            if not np.isfinite(nxt.y).all():
                return None, m, q, math.nan
            u = nxt
            continue
        dist = distance(nxt, u)
        if not np.isfinite(dist):
            return None, m, q, dist
        u = nxt
        if prev > 0:
            q = (dist / prev) ** (1.0 / (m - last))
            rising = rising + 1 if q >= 1.0 else 0
        if dist < tol:
            return u, m, q, dist
        if rising >= 2:
            return None, m, q, dist
        gap = 1
        if 0.0 < q < 1.0:
            skip = int(_SCHEDULE_SHARE * (math.log(tol) - math.log(dist))
                       / math.log(q))
            gap = min(m, max(1, skip))
        prev, last, due = dist, m, min(max_iter, m + gap)
    return None, max_iter, q, dist


def _halve(spec: ProblemSpec, D: RoughDriver, end: int, y0, regime):
    """Fixed point on [0, t_end], the window halved until the loop contracts.

    Returns (fixed point, window driver, Picard steps over all attempts, q).
    """
    steps = halvings = 0
    nonfinite = True
    while True:
        window = D.restricted(1, stop=end) if end != D.n else D
        u, m, q, dist = _iterate(spec, *regime(spec, window, y0))
        steps += m
        if u is not None:
            return u, window, steps, q
        nonfinite = nonfinite and not np.isfinite(dist)
        halvings += 1
        end //= 2
        if halvings > spec.picard.max_halvings or end < 1:
            cause = _NONFINITE if nonfinite else "driver too rough or indices misconfigured"
            raise ContractionFailure(
                f"no contraction after {halvings - 1} halvings ({cause})")


def _concatenate(spec: ProblemSpec, regime):
    """Local solutions, window after window, up to the horizon.

    Each window restarts from the last state on the shifted driver; its sup
    at the solution index feeds the no-blow-up monitor, and the running sup
    over the whole grid the growth fit.  Returns the grid, the solution rows
    and the remaining fields of a GlobalSolveResult.
    """
    scale, D, alpha = spec.scale, spec.driver, spec.solution_alpha
    t_idx = iterations = 0
    y_cur = np.asarray(spec.y0, dtype=float)
    rows, norms = np.empty((D.n + 1, scale.K)), np.empty(D.n + 1)
    rows[0], norms[0] = y_cur, scale.norm(y_cur, alpha)
    window_ends = []
    r = max(1.0, float(norms[0]))

    while t_idx < D.n:
        u, window, steps, _ = _halve(spec, shift(D, D.times[t_idx]),
                                     D.n - t_idx, y_cur, regime)
        iterations += steps
        new = slice(t_idx + 1, t_idx + window.n + 1)
        rows[new], norms[new] = u.y[1:], scale.norm(u.y[1:], alpha)
        y_cur = u.y[-1]
        t_idx += window.n
        window_ends.append(float(D.times[t_idx]))
        sup_now = float(np.max(norms[new]))
        if sup_now > _BLOWUP_FACTOR * r:
            raise AprioriBoundViolation(
                f"sup norm {sup_now:.3e} at t={D.times[t_idx]:.4f} exceeds "
                f"{_BLOWUP_FACTOR:.0e} x max(1, |y0|)")

    # growth fit: M2 >= 0 takes r to the final running sup (0 when that stays
    # below r), and M1 is the least factor with sup <= M1 r e^{M2 t} on the grid
    sups = np.maximum.accumulate(norms)
    m2 = float(np.log(max(sups[-1], r) / r) / D.T)
    m1 = float(np.max(sups / (r * np.exp(m2 * D.times))))
    return D.times.copy(), rows, tuple(window_ends), iterations, m1, m2


# -- public solvers -------------------------------------------------------------------

def _rough_path(spec: ProblemSpec, times, rows) -> ControlledPath:
    """Rough solution rows with the Gubinelli derivative re-anchored to G(y)."""
    scale = spec.scale
    return ControlledPath(times, rows, diffusion_rows(spec.diffusion, scale, rows),
                          spec.solution_alpha, scale.gamma, scale)


def solve_local(spec: ProblemSpec) -> LocalSolveResult:
    """Fixed point of Phi on [0, tau], tau found by halving from the horizon."""
    D = spec.driver
    u, window, steps, q = _halve(spec, D, D.n, np.asarray(spec.y0, dtype=float),
                                 _rough_window)
    return LocalSolveResult(_rough_path(spec, window.times, u.y), steps, q)


def solve_global(spec: ProblemSpec) -> GlobalSolveResult:
    """Concatenate local solutions up to the horizon; monitor the growth bound."""
    times, rows, *rest = _concatenate(spec, _rough_window)
    return GlobalSolveResult(_rough_path(spec, times, rows), *rest)


def solve_young_dirichlet(spec: ProblemSpec) -> GlobalSolveResult:
    """Mild solution for Dirichlet boundary noise in the Young regime.

    Picard iteration in the norm ||.||_{inf,-eta_D} + [.]_{gamma,-eta_D-gamma};
    the diffusion enters through G_D = A_{-sigma_D} D F with the first-order
    convolution (no Gubinelli derivative is required).  Windows are halved
    and concatenated by the same engine as in the rough case.
    """
    scale = spec.scale
    if scale.bc != DIRICHLET:
        raise ConfigError("solve_young_dirichlet needs a Dirichlet scale")
    if spec.driver.gamma <= YOUNG_FLOOR:
        raise DirichletRegularityError(
            f"Dirichlet noise needs driver exponent > {YOUNG_FLOOR}, "
            f"got {spec.driver.gamma}")
    times, rows, *rest = _concatenate(spec, _young_window)
    path = ControlledPath(times, rows, np.zeros_like(rows), -scale.eta,
                          spec.driver.gamma, scale)
    return GlobalSolveResult(path, *rest)


# -- stability metric ------------------------------------------------------------

def stability_distance(sol1: ControlledPath, sol2: ControlledPath,
                       D1: RoughDriver, D2: RoughDriver,
                       gamma_prime: float) -> float:
    """Inhomogeneous solution distance with each remainder over its own driver.

    Five terms: sup distance of paths at -eta, of derivatives at -eta - gamma,
    the gamma'-seminorm of the derivative difference at -eta - 2 gamma, and
    the gamma'/2 gamma'-seminorms of the remainder difference.
    """
    check_gamma_prime(gamma_prime, sol1.gamma)
    return _difference_norm(sol1, sol2, D1, D2, gamma_prime)


def check_gamma_prime(gamma_prime: float, gamma: float) -> None:
    """ConfigError unless the stability exponent lies in (1/3, gamma)."""
    if not (1.0 / 3.0 < gamma_prime < gamma):
        raise ConfigError(f"gamma_prime must lie in (1/3, gamma), got {gamma_prime}")


# -- cocycle ----------------------------------------------------------------------

def _solve_at_resolution(spec: ProblemSpec, D: RoughDriver, stop_time: float,
                         resolution: int, y0) -> np.ndarray:
    """phi(stop_time, D, y0) where phi solves at `resolution` grid intervals."""
    stop_idx = D.index_of(stop_time)
    if stop_idx % resolution != 0:
        raise GridMismatch(
            f"resolution {resolution} does not divide the window of {stop_idx} steps")
    window = D.restricted(stop_idx // resolution, stop=stop_idx)
    sub = ProblemSpec(spec.scale, window, spec.diffusion, np.asarray(y0, float),
                      spec.drift, spec.picard)
    return solve_global(sub).path.y[-1]


def cocycle_defect(spec: ProblemSpec, t: float, tau: float,
                   resolution: int) -> float:
    """| phi(t+tau, w, y0) - phi(t, theta_tau w, phi(tau, w, y0)) |_{-eta}.

    Each flow evaluation solves at the stated number of grid intervals over
    its own horizon (exact restrictions of the one sampled master driver), so
    the defect is attributable only to discretization; the rough-path shift
    makes the driver side of the identity exact.  A zero t or tau gives 0,
    since phi(0, w, .) is the identity.  ConfigError unless the resolution is
    an integer >= 1 (not a bool) and t, tau are finite and >= 0.
    """
    if not (is_integer(resolution) and resolution >= 1):
        raise ConfigError(
            f"resolution must be an integer of at least 1, got {resolution!r}")
    if not (np.isfinite(t) and np.isfinite(tau) and t >= 0 and tau >= 0):
        raise ConfigError(f"the cocycle defect needs finite t >= 0 and tau >= 0, "
                          f"got t={t}, tau={tau}")
    if t == 0.0 or tau == 0.0:
        return 0.0
    scale = spec.scale
    D = spec.driver
    ya = _solve_at_resolution(spec, D, t + tau, resolution, spec.y0)
    y_tau = _solve_at_resolution(spec, D, tau, resolution, spec.y0)
    yb = _solve_at_resolution(spec, shift(D, tau), t, resolution, y_tau)
    return float(scale.norm(ya - yb, spec.solution_alpha))

