"""Command-line front end: `roughbound <study> --config cfg [--seed N] [--out DIR]`.

Subcommands: sample, solve, convergence, cocycle, stability, invariants.
Every run is reproducible from (config, seed) alone; floats are written at 17
significant digits so reruns are byte-identical.  Each domain error exits
with the distinct nonzero code its class carries (`exit_code`), and the
process exits 0 iff all requested checks pass; one machine-parseable
`CHECK name PASS|FAIL value=... threshold=...` line is printed per check.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import studies
from .config import (build_drift_from, build_driver_from, build_picard_from,
                     build_problem, build_scale_from, parse_config,
                     parse_value, scale_map_y0)
from .errors import ConfigError, IoError, RoughboundError
from .rough_driver import restriction_indices
from .solver import solve_global, solve_young_dirichlet
from .spectral_scale import NEUMANN

# Rows per formatted block of an array artifact: one block of text is the
# most a write holds, so the memory of a write does not grow with n.
_BLOCK_ROWS = 256


def _write_lines(out: str, name: str, header: str, chunks) -> None:
    """Write `header`, then each newline-terminated chunk of `chunks` as it
    comes, to the file `name` in the directory `out`."""
    path = os.path.join(out, name)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoError(path) from exc


def _write_rows(out: str, name: str, header: str, rows) -> None:
    _write_lines(out, name, header,
                 (",".join(_fmt(v) for v in row) + "\n" for row in rows))


def _array_blocks(times, values, row):
    """Text of `times` and the rows of `values`, `_BLOCK_ROWS` rows per chunk.

    `row` is the template of one time row, a `%s` for the time before each
    `%.17g` value.  Each time is formatted once, and each chunk is filled by
    one `%` call.
    """
    for i in range(0, times.size, _BLOCK_ROWS):
        stamps = [f"{t:.17g}" for t in times[i:i + _BLOCK_ROWS].tolist()]
        block = values[i:i + _BLOCK_ROWS]
        # (time, value) pairs in row-major order, as Python objects
        cells = np.empty(block.shape + (2,), dtype=object)
        cells[..., 0] = np.array(stamps, dtype=object)[:, None]
        cells[..., 1] = block
        yield (row * len(stamps)) % tuple(cells.ravel().tolist())


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    return str(v)


# -- subcommand bodies ------------------------------------------------------------


def cmd_sample(cfg: dict, out: str) -> list:
    D = build_driver_from(cfg)
    _write_lines(out, "driver.csv", "time,X",
                 _array_blocks(D.times, D.X[:, None], "%s,%.17g\n"))
    meta = [("H", D.H), ("n", D.n), ("T", D.T), ("gamma", D.gamma),
            ("seed", cfg["seed"]), ("lift", D.lift)]
    _write_rows(out, "driver.meta", "key,value", meta)
    return [studies.Check("sample_written", float(D.n), float(cfg["n"]),
                          D.n == cfg["n"])]


def cmd_solve(cfg: dict, out: str) -> list:
    if cfg["out_stride"] < 1:
        raise ConfigError(f"out_stride must be at least 1, got {cfg['out_stride']}")
    restriction_indices(cfg["n"], cfg["out_stride"])  # before the draw
    spec = build_problem(cfg)
    if spec.scale.bc == NEUMANN:
        res = solve_global(spec)
    else:
        res = solve_young_dirichlet(spec)
    path = res.path.restricted(cfg["out_stride"]) if cfg["out_stride"] > 1 else res.path
    row = "".join(f"%s,{k},%.17g\n" for k in range(path.y.shape[1]))
    _write_lines(out, "solution.csv", "time,mode,coefficient",
                 _array_blocks(path.times, path.y, row))
    sup = float(np.max(spec.scale.norm(path.y, spec.solution_alpha)))
    checks = [
        studies.Check("solve_completed", float(path.times[-1]), spec.horizon,
                      abs(path.times[-1] - spec.horizon) < 1e-12),
        studies.Check("solve_sup_norm_finite", sup, 1e8, np.isfinite(sup)),
    ]
    summary = [c.line() for c in checks]
    summary.append(f"iterations={res.iterations}")
    summary.append(f"windows={len(res.window_ends)}")
    summary.append(f"apriori_m1={res.apriori_m1:.17g}")
    summary.append(f"apriori_m2={res.apriori_m2:.17g}")
    _write_rows(out, "summary.txt", "line", [(s,) for s in summary])
    return checks


def cmd_convergence(cfg: dict, out: str) -> list:
    scale, F, y0 = scale_map_y0(cfg)
    study = studies.sewing_study(
        scale, F, y0, H=cfg["H"], n=cfg["n"], T=cfg["T"], gamma=cfg["gamma"],
        seeds=range(cfg["seed"], cfg["seed"] + cfg["seeds"]),
        levels=cfg["levels"], beta=cfg["beta"])
    _write_rows(out, "convergence.csv", "level,defect,beta",
                [(int(l), float(d), study.beta)
                 for l, d in zip(study.levels, study.mean_defects)])
    return [study.check]


def cmd_cocycle(cfg: dict, out: str) -> list:
    scale, F, y0 = scale_map_y0(cfg)
    study = studies.cocycle_study(
        scale, F, y0, H=cfg["H"], master_n=cfg["n"], T=cfg["T"],
        gamma=cfg["gamma"], seeds=range(cfg["seed"], cfg["seed"] + cfg["seeds"]),
        resolutions=cfg["resolutions"], t=cfg["t"], tau=cfg["tau"],
        drift=build_drift_from(cfg, scale), picard=build_picard_from(cfg))
    _write_rows(out, "cocycle.csv", "resolution,defect",
                list(zip(study.resolutions, study.mean_defects)))
    return [study.check]


def cmd_stability(cfg: dict, out: str) -> list:
    scale, F, y0 = scale_map_y0(cfg)
    driver_study, initial_study = studies.stability_study(
        scale, F, y0, H=cfg["H"], n=cfg["n"], T=cfg["T"], gamma=cfg["gamma"],
        seed=cfg["seed"], gamma_prime=cfg["gamma_prime"],
        lambdas=cfg["lambdas"], eps0=cfg["eps0"],
        drift=build_drift_from(cfg, scale), picard=build_picard_from(cfg))
    rows = []
    for st in (driver_study, initial_study):
        rows.extend((st.kind, p, r) for p, r in zip(st.predictors, st.responses))
    _write_rows(out, "stability.csv", "kind,predictor,response", rows)
    return [driver_study.check, initial_study.check]


def cmd_invariants(cfg: dict, out: str | None) -> list:
    scale = build_scale_from(cfg)
    checks = studies.invariants_battery(
        scale, H=cfg["H"], n=min(cfg["n"], 64), T=cfg["T"],
        seeds=range(cfg["seed"], cfg["seed"] + cfg["seeds"]),
        rng_seed=cfg["seed"])
    if out is not None:
        _write_rows(out, "invariants.txt", "line", [(c.line(),) for c in checks])
    return checks


_COMMANDS = {
    "sample": cmd_sample,
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "cocycle": cmd_cocycle,
    "stability": cmd_stability,
    "invariants": cmd_invariants,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughbound",
        description="Desk-scale rough boundary-noise studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value file")
        p.add_argument("--seed", default=None,
                       help="override the config seed (an integer >= 0)")
        p.add_argument("--out", default=None,
                       help="existing output directory for CSV artifacts")
        if name == "convergence":
            p.add_argument("--levels", default=None,
                           help="override dyadic levels, e.g. 4..10")
    return parser


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = parse_value("seed", args.seed, "--seed")
        if getattr(args, "levels", None) is not None:
            cfg["levels"] = parse_value("levels", args.levels, "--levels")
        if args.out is None and args.command != "invariants":
            raise ConfigError(f"--out is required for `{args.command}`")
        if args.out is not None and not os.path.isdir(args.out):
            raise IoError(f"--out {args.out} is not an existing directory")
        checks = _COMMANDS[args.command](cfg, args.out)
    except RoughboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    all_ok = True
    for check in checks:
        print(check.line())
        all_ok = all_ok and check.ok
    return 0 if all_ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
