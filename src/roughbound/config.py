"""Flat key-value run configuration: parsing, validation, object construction.

The format is one `key = value` pair per line, `#` comments, no nesting and
no includes, so a run is fully determined by the config file plus the seed.
Unknown or duplicate keys are rejected.  The full schema is documented in the
README; every study key has a default, so minimal configs stay diff-able, and
an absent `gamma` is filled in as H - gamma_slack.
"""

from __future__ import annotations

import numpy as np

from .boundary_lift import lift_matrix
from .controlled_path import (ConstantBoundary, LinearTrace, SquashedTrace,
                              default_trace_weights)
from .errors import ConfigError, IoError
from .rough_driver import sample_fbm
from .solver import LinearDrift, PicardParams, ProblemSpec, SmoothBoundedDrift
from .spectral_scale import Scale, ScaleConfig, build_scale

_SCHEMA = {
    # study selector
    "study": str,
    # scale
    "a": float, "b": float, "K": int, "bc": str, "p": int, "delta": float,
    "gamma": float,
    # driver
    "H": float, "n": int, "T": float, "seed": int, "gamma_slack": float,
    # coefficients
    "drift": str, "drift_c": float, "drift_amp": float, "drift_delta1": float,
    "diffusion": str, "diffusion_gain": float, "diffusion_amp": float,
    "diffusion_delta2": float, "diffusion_bias0": float,
    "diffusion_bias1": float, "g0": float, "g1": float,
    # initial data
    "y0": str, "y0_g0": float, "y0_g1": float, "y0_coeffs": str,
    # solver knobs
    "tol": float, "max_iter": int, "max_halvings": int, "out_stride": int,
    # study knobs
    "levels": str, "beta": float, "seeds": int, "t": float, "tau": float,
    "resolutions": str, "gamma_prime": float, "lambdas": str, "eps0": str,
}

_DEFAULTS = {
    "study": "invariants",
    "a": 1.0, "b": -1.0, "K": 16, "bc": "neumann", "p": 2, "delta": 0.05,
    "H": 0.45, "n": 1024, "T": 1.0, "seed": 0, "gamma_slack": 0.05,
    "drift": "none", "drift_c": -1.0, "drift_amp": 1.0,
    "diffusion": "squashed_trace", "diffusion_gain": 0.8,
    "diffusion_amp": 1.0, "diffusion_delta2": 2.0,
    "diffusion_bias0": 0.3, "diffusion_bias1": -0.2, "g0": 1.0, "g1": 0.0,
    "y0": "lift", "y0_g0": 1.0, "y0_g1": 0.5, "y0_coeffs": "1.0",
    "tol": 1e-9, "max_iter": 80, "max_halvings": 10, "out_stride": 1,
    "levels": "4..9", "beta": 0.0, "seeds": 10, "t": 0.25, "tau": 0.25,
    "resolutions": "64,128,256", "gamma_prime": 0.35,
    "lambdas": "0.95,0.99,1.01,1.05", "eps0": "-0.05,-0.01,0.01,0.05",
}

STUDIES = ("sample", "solve", "convergence", "cocycle", "stability", "invariants")


def parse_config(path) -> dict:
    """Read a flat key-value file into a typed dict with defaults applied."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(str(path)) from exc
    cfg = dict(_DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            cfg[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    if cfg["study"] not in STUDIES:
        raise ConfigError(f"unknown study {cfg['study']!r}; pick one of {STUDIES}")
    cfg.setdefault("gamma", cfg["H"] - cfg["gamma_slack"])
    return cfg


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


def parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def build_scale_from(cfg: dict) -> Scale:
    return build_scale(ScaleConfig(a=cfg["a"], b=cfg["b"], K=cfg["K"],
                                   bc=cfg["bc"], p=cfg["p"], delta=cfg["delta"],
                                   gamma=cfg["gamma"]))


def build_driver_from(cfg: dict):
    return sample_fbm(cfg["H"], cfg["n"], cfg["T"], seed=cfg["seed"],
                      gamma=cfg["gamma"])


def build_diffusion_from(cfg: dict, scale: Scale):
    kind = cfg["diffusion"]
    alpha = scale.eps - 1.0
    d2 = cfg["diffusion_delta2"]
    if kind == "zero":
        return ConstantBoundary(0.0, 0.0, alpha, d2)
    if kind == "constant":
        return ConstantBoundary(cfg["g0"], cfg["g1"], alpha, d2)
    w0, w1 = default_trace_weights(scale, cfg["diffusion_gain"])
    if kind == "linear_trace":
        return LinearTrace(w0, w1, alpha, d2)
    if kind == "squashed_trace":
        return SquashedTrace(w0, w1, cfg["diffusion_amp"], alpha, d2,
                             bias=(cfg["diffusion_bias0"], cfg["diffusion_bias1"]))
    raise ConfigError(f"unknown diffusion selector {kind!r}")


def build_drift_from(cfg: dict, scale: Scale):
    kind = cfg["drift"]
    if kind == "none":
        return None
    delta1 = cfg.get("drift_delta1")
    if delta1 is None:
        delta1 = max(2 * scale.gamma, 0.8)
    if kind == "linear":
        return LinearDrift(cfg["drift_c"], delta1)
    if kind == "smooth_bounded":
        return SmoothBoundedDrift(cfg["drift_amp"], delta1)
    raise ConfigError(f"unknown drift selector {kind!r}")


def build_y0_from(cfg: dict, scale: Scale) -> np.ndarray:
    kind = cfg["y0"]
    if kind == "zero":
        return np.zeros(scale.K)
    if kind == "lift":
        return lift_matrix(scale) @ np.array([cfg["y0_g0"], cfg["y0_g1"]])
    if kind == "coeffs":
        vals = parse_float_list(cfg["y0_coeffs"])
        out = np.zeros(scale.K)
        out[:min(len(vals), scale.K)] = vals[:scale.K]
        return out
    raise ConfigError(f"unknown y0 selector {kind!r}")


def scale_map_y0(cfg: dict):
    """The (scale, diffusion map, y0) triple every study starts from."""
    scale = build_scale_from(cfg)
    return scale, build_diffusion_from(cfg, scale), build_y0_from(cfg, scale)


def build_problem(cfg: dict) -> ProblemSpec:
    scale, F, y0 = scale_map_y0(cfg)
    picard = PicardParams(cfg["tol"], cfg["max_iter"], cfg["max_halvings"])
    return ProblemSpec(scale, build_driver_from(cfg), F, y0,
                       build_drift_from(cfg, scale), picard)
