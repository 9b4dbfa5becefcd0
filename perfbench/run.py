"""Benchmark of the roughbound solver library and CLI.

    python3 perfbench/run.py --workload mc-solve --seed 1 --seconds 20 --trace 0

Run from the root of a roughbound checkout.  With ``--trace 0`` it measures
the end-to-end metrics of one workload for ``--seconds`` seconds; with
``--trace 1`` it makes the separate traced run that reports per-layer
metrics.  ``--workload all`` runs every workload in turn.  Human-readable
lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md
for the workloads and metric definitions.  Standard library only: every
process that imports the program is a fresh interpreter (perfbench/worker.py
or the CLI itself).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("mc-solve", "certify", "young-windows", "cli-cold")

SETUP_SAMPLES = 3        # fresh-interpreter set-ups per run, median reported
TAIL_BEYOND = 10         # samples beyond the reported tail percentile
RUN_BUDGET_S = 170.0     # the whole run, set-up included, ends within this
CLI_N = 4096             # grid of the cli-cold config
CLI_MODES = 16           # K of the default config: rows per time in solution.csv
# nominal op seconds, used only to size the fixed op list of a traced pass
NOMINAL_OP_S = {"mc-solve": 0.2, "certify": 4.5, "young-windows": 0.1,
                "cli-cold": 4.0}


def seed_stream(seed, part=0):
    """Driver seeds of one process of a run; the same --seed gives the same
    inputs."""
    rng = random.Random(f"{seed}:{part}")
    while True:
        yield rng.randrange(2 ** 31)


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no program, crash, timeout)."""


class Runner:
    """Spawns the fresh interpreters of one run inside a scratch directory."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.work = os.path.join(root, ".perfbench", f"tmp-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("ROUGHBOUND_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self._count = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, name):
        self._count += 1
        return os.path.join(self.work, f"{self._count}-{name}")

    def spawn(self, argv, check):
        """Run argv to completion; returns (exit code, start time, seconds,
        max RSS KiB, stdout).  check: a non-zero exit is a BenchError."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                # wait4 instead of Popen.wait, for the child's peak RSS
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        raise BenchError(f"timed out: {' '.join(argv)}")
                    time.sleep(0.002)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            elapsed = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        if check and proc.returncode != 0:
            with open(err_path) as fh:
                raise BenchError(f"{' '.join(argv[1:3])} exited "
                                 f"{proc.returncode}:\n{fh.read()[-2000:]}")
        return proc.returncode, t0, elapsed, usage.ru_maxrss, stdout

    def worker(self, mode, workload="mc-solve", seed=0, *extra):
        argv = [sys.executable, WORKER, mode, "--workload", workload,
                "--seed", str(seed), *map(str, extra)]
        _, t0, _, rss, stdout = self.spawn(argv, check=True)
        result = json.loads(stdout.strip().splitlines()[-1])
        if "ready" in result:
            result["setup_s"] = result["ready"] - t0
        result["rss_kib"] = rss
        return result

    def cli_solve(self, seed, traced=None):
        """One `roughbound solve` at the default config, n=4096, in a fresh
        interpreter.  traced=None runs the CLI module itself; 0/1 runs it
        inside worker.py without/with tracing.  Returns (seconds, max RSS
        KiB, failure reasons, bytes written, worker record or None)."""
        out_dir = self.path("out")
        os.makedirs(out_dir)
        cfg = self.path("run.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"study = solve\nn = {CLI_N}\nseed = {seed}\n")
        cli_args = ["solve", "--config", cfg, "--out", out_dir]
        if traced is None:
            argv = [sys.executable, "-m", "roughbound.cli", *cli_args]
        else:
            spans = self.path("spans.json")
            argv = [sys.executable, WORKER, "cli", "--traced", str(traced),
                    "--spans", spans, "--", *cli_args]
        code, _, elapsed, rss, stdout = self.spawn(argv, check=False)
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        lines = stdout.strip().splitlines()
        bad = [ln for ln in lines if not (ln.startswith("CHECK ") and " PASS " in ln)]
        if bad or not lines:
            fails.append(f"unexpected output {bad[:3] or 'none'}")
        written = sum(os.path.getsize(os.path.join(out_dir, name))
                      for name in os.listdir(out_dir))
        try:
            with open(os.path.join(out_dir, "solution.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
        except OSError:
            rows = -1
        if rows != (CLI_N + 1) * CLI_MODES:
            fails.append(f"solution.csv has {rows} rows, "
                         f"expected {(CLI_N + 1) * CLI_MODES}")
        shutil.rmtree(out_dir)
        record = None
        if traced is not None:
            try:
                with open(spans) as fh:
                    record = json.load(fh)
            except OSError:  # the CLI crashed before the record was written
                fails.append("no trace record")
                record = {"import_s": 0.0, "busy_s": 0.0, "spans": [],
                          "missing": []}
        return elapsed, rss, [f"driver seed {seed}: {f}" for f in fails], written, record


# -- timed run -----------------------------------------------------------------

def tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile that has
    at least TAIL_BEYOND samples beyond it, but never below the median.

    With fewer than 2 * TAIL_BEYOND + 1 ops no percentile above the median
    has that many samples beyond it, and the maximum of a few ops varies by
    more than the bound from run to run, so the median is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - TAIL_BEYOND - 1, n // 2)
    return xs[i], 100.0 * (i + 1) / n, n - i - 1


def timed_run(runner, workload, seed, seconds):
    setups, rss = [], 0
    if workload == "cli-cold":
        for _ in range(SETUP_SAMPLES):
            setups.append(runner.worker("setup", workload, seed)["setup_s"])
        latencies, failures = [], []
        seeds = seed_stream(seed)
        start = time.monotonic()
        while time.monotonic() < start + seconds:
            elapsed, op_rss, fails, _, _ = runner.cli_solve(next(seeds))
            latencies.append(elapsed)
            failures.append(fails)
            rss = max(rss, op_rss)
    else:
        # The measured time is split over up to SETUP_SAMPLES processes,
        # each with its own inputs, so that each start is also a set-up
        # sample and a per-process speed difference averages out.
        procs = max(1, min(SETUP_SAMPLES,
                           int(seconds / (4 * NOMINAL_OP_S[workload]))))
        for _ in range(SETUP_SAMPLES - procs):
            setups.append(runner.worker("setup", workload, seed)["setup_s"])
        latencies, failures = [], []
        for part in range(procs):
            rec = runner.worker("run", workload, seed, "--part", part,
                                "--seconds", seconds / procs)
            setups.append(rec["setup_s"])
            latencies += rec["latencies"]
            failures += rec["failures"]
            rss = max(rss, rec["rss_kib"])
    # latencies of failed ops count only if no op succeeded (correct=false)
    ok = [t for t, f in zip(latencies, failures) if not f] or latencies
    value, pct, beyond = tail(ok)
    metrics = {
        "ops_per_s": (sum(1 for f in failures if not f) / sum(latencies),
                      "1/s", ""),
        "op_p50_s": (statistics.median(ok), "s", f"median of {len(ok)} ops"),
        "op_tail_s": (value, "s", f"p{pct:.1f}: {beyond} of {len(ok)} "
                                  "samples beyond"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh interpreters"),
        "peak_rss_mib": (rss / 1024.0, "MiB", ""),
    }
    return metrics, failures


# -- traced run ----------------------------------------------------------------

def traced_pass(runner, workload, seed, ops, traced):
    """One fixed op list in fresh interpreters; returns the pass record."""
    if workload != "cli-cold":
        spans = runner.path("spans.json")
        rec = runner.worker("pass", workload, seed, "--ops", ops,
                            "--traced", int(traced), "--spans", spans)
        if traced:
            with open(spans) as fh:
                rec.update(json.load(fh))
        rec["bytes_written"] = 0
        return rec
    rec = {"import_s": 0.0, "busy_s": 0.0, "failures": [], "spans": [],
           "missing": [], "bytes_written": 0}
    seeds = seed_stream(seed)
    for _ in range(ops):
        _, _, fails, written, child = runner.cli_solve(next(seeds), int(traced))
        rec["failures"].append(fails)
        rec["bytes_written"] += written
        rec["import_s"] += child["import_s"]
        rec["busy_s"] += child["busy_s"]
        offset = len(rec["spans"])
        for s in child["spans"]:
            s[3] = s[3] + offset if s[3] >= 0 else -1
            rec["spans"].append(s)
        rec["missing"] = sorted(set(rec["missing"]) | set(child["missing"]))
    if traced and not any(s[0] == "write" for s in rec["spans"]):
        rec["missing"].append("write")
    return rec


def trace_run(runner, workload, seed, seconds):
    from tracer import EXACT_COUNTS, layer_metrics

    ops = max(1, int(seconds / 4 / NOMINAL_OP_S[workload]))
    # untraced pass between the traced ones, so drift over the run cancels
    first = traced_pass(runner, workload, seed, ops, True)
    plain = traced_pass(runner, workload, seed, ops, False)
    passes = [first, traced_pass(runner, workload, seed, ops, True)]
    layers = [layer_metrics(p["spans"], set(p["missing"])) for p in passes]
    for rec, lay in zip(passes, layers):
        lay["cli.import_s"] = rec["import_s"]
        lay["cli.bytes_written"] = rec["bytes_written"]
    failures = [f for rec in [plain, *passes] for f in rec["failures"]]
    exact = [*EXACT_COUNTS, "cli.bytes_written"]
    problems = [f"exact count {name} differs between the two traced passes: "
                f"{layers[0][name]} vs {layers[1][name]}"
                for name in exact
                if name in layers[0] and layers[0][name] != layers[1][name]]
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else (
            "bytes" if name == "cli.bytes_written" else "count")
        if name in exact or unit == "count":
            value = layers[0][name]
        else:
            value = statistics.median(lay[name] for lay in layers)
        metrics[name] = (value, unit, "")
    overhead = statistics.median(p["busy_s"] for p in passes) - plain["busy_s"]
    metrics["trace.overhead_s"] = (
        overhead, "s", f"traced minus untraced wall of {ops} ops "
                       f"({plain['busy_s']:.3f} s untraced)")
    missing = sorted({m for p in passes for m in p["missing"]})
    path = os.path.join(runner.root, ".perfbench",
                        f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops,
                   "missing": missing, "passes": passes}, fh)
    notes = [f"{ops} ops per pass; spans written to {os.path.relpath(path, runner.root)}"]
    if missing:
        notes.append(f"missing targets (their metrics are not reported): {missing}")
    return metrics, failures, notes, problems


# -- reporting -------------------------------------------------------------------

def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def report(workload, seed, metrics, failures, notes, problems):
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    print(f"# workload {workload} seed {seed}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}".rstrip())
    print(f"{'fail_frac':44s} {failed / attempted:14.6g} {'':6s} "
          f"{failed} of {attempted} ops failed")
    for fails in [f for f in failures if f][:5]:
        print(f"# FAIL {'; '.join(fails)}")
    for problem in problems:
        print(f"# FAIL {problem}")
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def run_one(root, workload, seed, seconds, trace):
    runner = Runner(root, time.monotonic() + RUN_BUDGET_S)
    try:
        if trace:
            metrics, failures, notes, problems = trace_run(runner, workload,
                                                           seed, seconds)
        else:
            metrics, failures = timed_run(runner, workload, seed, seconds)
            notes, problems = [], []
        env = runner.worker("env")
    finally:
        runner.close()
    env.pop("rss_kib")
    env.update(nproc=len(os.sched_getaffinity(0)), src_lines=src_lines(root))
    notes.insert(0, "env " + " ".join(f"{k}={v}" for k, v in env.items()))
    return report(workload, seed, metrics, failures, notes, problems)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "roughbound", "__init__.py")):
        sys.exit("perfbench: no src/roughbound here; run from a roughbound checkout")
    # build: byte-compile the sources once so that imports are timed warm
    if not compileall.compile_dir(os.path.join(root, "src"), quiet=1):
        sys.exit("perfbench: src/ does not compile")
    sys.path.insert(0, HERE)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(root, w, args.seed, args.seconds, args.trace)
                   for w in names]
    except BenchError as exc:
        sys.exit(f"perfbench: {exc}")
    for w, res in zip(names, results):
        print(json.dumps(res) if len(names) == 1 else f"{w} {json.dumps(res)}")


if __name__ == "__main__":
    main()
