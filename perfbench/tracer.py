"""Span tracing of roughbound from outside the program.

Each traced layer is a public function, wrapped under the name its caller
looks it up by (``solver.crp_distance``, ``studies.sample_fbm``, ...), so
that the program itself is left untouched.  Spans (name, start, end, parent)
are kept in memory and written out once the traced pass has finished.  A
target that no longer exists is recorded as missing; the metrics built on it
are then reported missing instead of as zero.
"""

from __future__ import annotations

import builtins
import importlib
import inspect
import time

# span name -> (module, attribute) pairs naming every lookup the workloads
# go through.  The benchmark's own calls go through the package namespace.
TARGETS = {
    "solve": [("roughbound", "solve_global"),
              ("roughbound", "solve_young_dirichlet"),
              ("roughbound.studies", "solve_global"),
              ("roughbound.cli", "solve_global")],
    "study": [("roughbound.studies", "stability_study"),
              ("roughbound.studies", "remainder_refinement_study")],
    "sample": [("roughbound", "sample_fbm"),
               ("roughbound.studies", "sample_fbm"),
               ("roughbound.config", "sample_fbm")],
    "crp_distance": [("roughbound.solver", "crp_distance")],
    "path_seminorm": [("roughbound.solver", "path_seminorm")],
    "crp_norm": [("roughbound.rough_convolution", "crp_norm")],
    "lift_extrapolate": [("roughbound.solver", "lift_extrapolate"),
                         ("roughbound.studies", "lift_extrapolate")],
    "rough_convolve": [("roughbound.solver", "rough_convolve"),
                       ("roughbound.studies", "rough_convolve")],
    "young_convolve": [("roughbound.solver", "young_convolve")],
    "remainder_certificate": [("roughbound.studies", "remainder_certificate")],
    "drift_convolve": [("roughbound.solver", "drift_convolve")],
    "stability_distance": [("roughbound.solver", "stability_distance")],
    "metric": [("roughbound.studies", "rough_metric"),
               ("roughbound.rough_convolution", "rho")],
}

# Files the CLI opens for writing are timed from open to close by shadowing
# the builtin `open` in this module.
WRITE_MODULE = "roughbound.cli"

# per-layer metric -> span name whose self time it sums
SELF_TIME = {
    "controlled_path.crp_distance_s": "crp_distance",
    "controlled_path.path_seminorm_s": "path_seminorm",
    "controlled_path.crp_norm_s": "crp_norm",
    "controlled_path.lift_extrapolate_s": "lift_extrapolate",
    "rough_convolution.rough_convolve_s": "rough_convolve",
    "rough_convolution.young_convolve_s": "young_convolve",
    "rough_convolution.remainder_certificate_s": "remainder_certificate",
    "solver.drift_convolve_s": "drift_convolve",
    "solver.stability_distance_s": "stability_distance",
    "solver.solve_self_s": "solve",
    "rough_driver.metric_s": "metric",
    "studies.self_s": "study",
    "cli.write_s": "write",
}

# counts that must repeat exactly on a rerun of the same seed, and the spans
# each is derived from
EXACT_COUNTS = {
    "controlled_path.crp_distance_calls": ("crp_distance",),
    "controlled_path.pairs_evaluated": ("crp_distance",),
    "solver.picard_steps": ("solve", "crp_distance", "path_seminorm"),
    "solver.iterations_reported": ("solve",),
    "solver.windows": ("solve",),
}


def _sample_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return (a["H"], a["n"], a["T"])
    return key


class Tracer:
    """In-memory span recorder that wraps module attributes in place."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs]
        self.missing = set()     # span names with at least one absent target
        self.paused = False
        self._stack = []
        self._undo = []
        self._sampled = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name, attrs, push=True):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        idx = len(self.spans) - 1
        if push:
            self._stack.append(idx)
        return idx

    def _close(self, idx, pop=True):
        self.spans[idx][2] = time.perf_counter()
        if pop:
            self._stack.pop()

    def _wrap(self, name, fn):
        attrs_before = attrs_after = None
        if name == "sample":
            key = _sample_key(fn)

            def attrs_before(args, kwargs):
                k = key(args, kwargs)
                cold = k not in self._sampled
                self._sampled.add(k)
                return {"cold": cold}
        elif name == "crp_distance":
            def attrs_before(args, kwargs):
                stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
                m = args[0].n // stride + 1
                return {"pairs": m * (m - 1) // 2}
        elif name == "solve":
            def attrs_after(result, attrs):
                attrs["iterations"] = int(result.iterations)
                attrs["windows"] = len(result.window_ends)

        def wrapped(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            attrs = attrs_before(args, kwargs) if attrs_before else {}
            idx = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs_after:
                attrs_after(result, attrs)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _traced_open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if self.paused or not any(c in mode for c in "wax"):
            return fh
        return _TimedFile(fh, self, self._open("write", {}, push=False))

    # -- install / remove --------------------------------------------------

    def install(self):
        for name, targets in TARGETS.items():
            for mod_name, attr in targets:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    self.missing.add(name)
                    continue
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.missing.add(name)
                    continue
                setattr(mod, attr, self._wrap(name, fn))
                self._undo.append((mod, attr, fn))
        try:
            mod = importlib.import_module(WRITE_MODULE)
        except ImportError:
            self.missing.add("write")
        else:
            mod.open = self._traced_open
            self._undo.append((mod, "open", None))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            if fn is None:
                delattr(mod, attr)
            else:
                setattr(mod, attr, fn)
        self._undo.clear()


class _TimedFile:
    """File proxy that closes its `write` span when the file is closed."""

    def __init__(self, fh, tracer, idx):
        self._fh = fh
        self._tracer = tracer
        self._idx = idx
        self.write = fh.write

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            self._tracer._close(self._idx, pop=False)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


# -- derived metrics ----------------------------------------------------------

def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, missing):
    """Per-layer values of one traced pass; missing metrics are left out."""
    own = self_times(spans)
    out = {}
    for metric, name in SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s[0] == name)
    out["rough_driver.sample_cold_s"] = sum(
        t for s, t in zip(spans, own) if s[0] == "sample" and s[4]["cold"])
    out["rough_driver.sample_warm_s"] = sum(
        t for s, t in zip(spans, own) if s[0] == "sample" and not s[4]["cold"])
    dist = [s for s in spans if s[0] == "crp_distance"]
    out["controlled_path.crp_distance_calls"] = len(dist)
    out["controlled_path.pairs_evaluated"] = sum(s[4]["pairs"] for s in dist)
    out["solver.picard_steps"] = sum(
        1 for s in spans if s[0] in ("crp_distance", "path_seminorm")
        and s[3] >= 0 and spans[s[3]][0] == "solve")
    solves = [s for s in spans if s[0] == "solve"]
    out["solver.iterations_reported"] = sum(s[4].get("iterations", 0)
                                            for s in solves)
    out["solver.windows"] = sum(s[4].get("windows", 0) for s in solves)

    depends = {metric: (name,) for metric, name in SELF_TIME.items()}
    depends.update(EXACT_COUNTS)
    depends["rough_driver.sample_cold_s"] = ("sample",)
    depends["rough_driver.sample_warm_s"] = ("sample",)
    for metric, names in depends.items():
        if any(n in missing for n in names):
            out.pop(metric, None)
    return out
