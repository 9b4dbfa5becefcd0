"""Flat key-value run configuration: parsing, validation, object construction.

The format is one `key = value` pair per line, `#` comments, no nesting and
no includes, so a run is fully determined by the config file plus the seed.
`_KEYS` gives each key its parser and default once, and `parse_config`
returns typed values (finite floats; tuples, or a range for `levels`, for
the lists) or a ConfigError that names the file and line of an unknown,
duplicate or malformed entry.  The full schema is documented in the README;
every study key has a default, so minimal configs stay diff-able, and an
absent `gamma` is filled in as H - 0.05 (DEFAULT_GAMMA_SLACK), the default
of `sample_fbm`.  A `seed` is an integer >= 0, and an explicit `gamma` must
lie below H, as `sample_fbm` requires.  `parse_value` is the one parser of
a key's text, for the file and for the command-line overrides.
"""

from __future__ import annotations

import numpy as np

from .controlled_path import (ConstantBoundary, LinearTrace, SquashedTrace,
                              default_trace_weights)
from .errors import ConfigError, IoError
from .rough_driver import DEFAULT_GAMMA_SLACK, sample_fbm
from .solver import (LinearDrift, PicardParams, ProblemSpec, SmoothBoundedDrift,
                     check_problem)
from .spectral_scale import DIRICHLET, NEUMANN, Scale, ScaleConfig, build_scale

STUDIES = ("sample", "solve", "convergence", "cocycle", "stability", "invariants")


def _choice(*options):
    """Parser of a selector key: its text, which must be one of options."""
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"pick one of {options}")
        return text
    return parse


def _finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError("not finite")
    return x


def _floats(text: str) -> tuple:
    return tuple(_finite(v) for v in text.split(",") if v.strip())


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("a seed is an integer >= 0")
    return seed


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def parse_levels(text: str) -> range:
    """`a..b` inclusive level range."""
    try:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"levels must look like `4..10`, got {text!r}") from exc
    if hi_i < lo_i:
        raise ConfigError(f"empty level range {text!r}")
    return range(lo_i, hi_i + 1)


# key -> (parser of its text, default); a None default is derived or optional
_KEYS = {
    # study selector
    "study": (_choice(*STUDIES), "invariants"),
    # scale
    "a": (_finite, 1.0), "b": (_finite, -1.0), "K": (int, 16),
    "bc": (_choice(NEUMANN, DIRICHLET), NEUMANN), "delta": (_finite, 0.05),
    "gamma": (_finite, None),
    # driver
    "H": (_finite, 0.45), "n": (int, 1024), "T": (_finite, 1.0),
    "seed": (_seed, 0),
    # coefficients
    "drift": (_choice("none", "linear", "smooth_bounded"), "none"),
    "drift_c": (_finite, -1.0), "drift_amp": (_finite, 1.0),
    "diffusion": (_choice("linear_trace", "squashed_trace", "constant", "zero"),
                  "squashed_trace"), "diffusion_gain": (_finite, 0.8),
    "diffusion_amp": (_finite, 1.0),
    "diffusion_bias0": (_finite, 0.3), "diffusion_bias1": (_finite, -0.2),
    "g0": (_finite, 1.0), "g1": (_finite, 0.0),
    # initial data
    "y0": (_choice("lift", "zero", "coeffs"), "lift"),
    "y0_g0": (_finite, 1.0), "y0_g1": (_finite, 0.5),
    "y0_coeffs": (_floats, (1.0,)),
    # solver knobs
    "tol": (_finite, 1e-9), "max_iter": (int, 80), "max_halvings": (int, 10),
    "out_stride": (int, 1),
    # study knobs
    "levels": (parse_levels, range(4, 10)), "beta": (_finite, 0.0),
    "seeds": (int, 10), "t": (_finite, 0.25), "tau": (_finite, 0.25),
    "resolutions": (_ints, (64, 128, 256)), "gamma_prime": (_finite, 0.35),
    "lambdas": (_floats, (0.95, 0.99, 1.01, 1.05)),
    "eps0": (_floats, (-0.05, -0.01, 0.01, 0.05)),
}


def parse_config(path) -> dict:
    """Read a flat key-value file into a dict of typed values, defaults applied."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(str(path)) from exc
    cfg = {key: default for key, (_, default) in _KEYS.items()}
    seen = {}   # key -> its line
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen[key] = lineno
        cfg[key] = parse_value(key, value, f"{path}:{lineno}")
    if cfg["gamma"] is None:
        cfg["gamma"] = cfg["H"] - DEFAULT_GAMMA_SLACK
    elif not cfg["gamma"] < cfg["H"]:
        raise ConfigError(f"{path}:{seen['gamma']}: bad value for gamma: "
                          f"{cfg['gamma']!r} (an fBm path is gamma-Hoelder only "
                          f"for gamma < H = {cfg['H']!r})")
    return cfg


def parse_value(key: str, text: str, where: str):
    """The typed value of `key` from its text, or a ConfigError naming `where`
    (a file and line, or a command-line option)."""
    try:
        return _KEYS[key][0](text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {text!r} "
                          f"({exc})") from exc


def build_scale_from(cfg: dict) -> Scale:
    return build_scale(ScaleConfig(a=cfg["a"], b=cfg["b"], K=cfg["K"],
                                   bc=cfg["bc"], delta=cfg["delta"],
                                   gamma=cfg["gamma"]))


def build_driver_from(cfg: dict):
    return sample_fbm(cfg["H"], cfg["n"], cfg["T"], seed=cfg["seed"],
                      gamma=cfg["gamma"])


def build_diffusion_from(cfg: dict, scale: Scale):
    kind = cfg["diffusion"]
    alpha = scale.eps - 1.0
    d2 = scale.eta + 2.0    # any index gain above eta + 3/2 gives the same numbers
    if kind == "zero":
        return ConstantBoundary(0.0, 0.0, alpha, d2)
    if kind == "constant":
        return ConstantBoundary(cfg["g0"], cfg["g1"], alpha, d2)
    w0, w1 = default_trace_weights(scale, cfg["diffusion_gain"])
    if kind == "linear_trace":
        return LinearTrace(w0, w1, alpha, d2)
    return SquashedTrace(w0, w1, cfg["diffusion_amp"], alpha, d2,
                         bias=(cfg["diffusion_bias0"], cfg["diffusion_bias1"]))


def build_drift_from(cfg: dict, scale: Scale):
    kind = cfg["drift"]
    if kind == "none":
        return None
    delta1 = max(2 * scale.gamma, 0.8)  # any gap in [2 gamma, 1) gives the same numbers
    if kind == "linear":
        return LinearDrift(cfg["drift_c"], delta1)
    return SmoothBoundedDrift(cfg["drift_amp"], delta1)


def build_y0_from(cfg: dict, scale: Scale) -> np.ndarray:
    kind = cfg["y0"]
    if kind == "zero":
        return np.zeros(scale.K)
    if kind == "lift":
        return scale.lift @ np.array([cfg["y0_g0"], cfg["y0_g1"]])
    vals = cfg["y0_coeffs"]
    out = np.zeros(scale.K)
    out[:min(len(vals), scale.K)] = vals[:scale.K]
    return out


def scale_map_y0(cfg: dict):
    """The (scale, diffusion map, y0) triple every study starts from."""
    scale = build_scale_from(cfg)
    return scale, build_diffusion_from(cfg, scale), build_y0_from(cfg, scale)


def build_picard_from(cfg: dict) -> PicardParams:
    return PicardParams(cfg["tol"], cfg["max_iter"], cfg["max_halvings"])


def build_problem(cfg: dict) -> ProblemSpec:
    scale, F, y0 = scale_map_y0(cfg)
    drift, picard = build_drift_from(cfg, scale), build_picard_from(cfg)
    check_problem(scale, F, y0, drift, picard)   # before the draw
    return ProblemSpec(scale, build_driver_from(cfg), F, y0, drift, picard)
