"""Spans and counters at magmetric's module boundaries, recorded from outside.

Each boundary is the name a caller module binds (for example the `dedupe`
that `magmetric.magnitude` imported), so patching it catches exactly the
calls that cross from one module into another. Spans are kept in memory as
(name, start, end, parent, pass) and written out when the run ends. A span's
self time is its duration minus the time its direct child spans cover.

Nothing here changes what the program computes: wrappers pass arguments and
results through untouched, and are removed again after every traced pass.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

# Boundaries that get a span: (owner, attribute, span name, counter hook).
# An owner ending in ":RngState" names that class, so a method is patched.
SPANS = [
    ("magmetric.cli", "run_study", "experiments.run_study", None),
    ("magmetric.cli", "write_rows", "experiments.write", None),
    ("magmetric.cli", "write_summary", "experiments.write", None),
    ("magmetric.cli", "train", "maggn.train", None),
    ("magmetric.cli", "save_checkpoint", "maggn.save_checkpoint", None),
    ("magmetric.cli", "read_point_csv", "core.io", None),
    ("magmetric.experiments", "mag_distance", "distance.mag_distance", "pair"),
    ("magmetric.experiments", "sliced_wasserstein", "baselines.sliced_wasserstein", None),
    ("magmetric.experiments", "mmd_squared", "baselines.mmd_squared", None),
    ("magmetric.maggn", "_value_and_gradient", "distance.value_and_gradient", "pair"),
    ("magmetric.distance", "magnitude", "magnitude.magnitude", None),
    ("magmetric.distance", "union_sets", "core.union_sets", None),
    ("magmetric.distance", "cdist", "distance.cdist", "geometry"),
    ("magmetric.distance", "dedupe", "core.dedupe", None),
    ("magmetric.magnitude", "dedupe", "core.dedupe", None),
    ("magmetric.core", "dedupe", "core.dedupe", None),
    ("magmetric.magnitude", "pairwise_distances", "core.pairwise_distances", "pdist"),
    ("magmetric.core:RngState", "normals", "core.rng", None),
    ("magmetric.core:RngState", "uniforms", "core.rng", "uniform_words"),
    ("magmetric.core:RngState", "permutation", "core.rng", "swap_words"),
]

# Boundaries that are only counted. Their time stays in the caller's self
# time: the Cholesky solve belongs to `magnitude`, and the per-projection 1D
# Wasserstein calls belong to `sliced_wasserstein`.
COUNTERS = [
    ("magmetric.magnitude", "_solve_ones", "solve"),
    ("magmetric.distance", "_solve_ones", "solve"),
    ("magmetric.baselines", "wasserstein_1d", "w1d"),
]

# Per-pass counts. All of them must repeat exactly from pass to pass and from
# run to run with the same seed, as must distance.geometry_per_pair.
COUNTS = ("core.pairwise_distances.calls", "core.pairwise_distances.bytes",
          "core.dedupe.calls", "core.rng.words", "magnitude.magnitude.calls",
          "magnitude.rows", "magnitude.cholesky_flops", "magnitude.failures",
          "distance.mag_distance.calls", "distance.value_and_gradient.calls",
          "distance.coincident_errors", "baselines.sliced_wasserstein.calls",
          "baselines.wasserstein_1d.calls", "baselines.mmd_squared.calls")
SELF_TIMES = ("core.pairwise_distances", "core.dedupe", "core.union_sets",
              "core.rng", "core.io", "magnitude.magnitude", "distance.mag_distance",
              "distance.value_and_gradient", "distance.cdist",
              "baselines.sliced_wasserstein", "baselines.mmd_squared",
              "experiments.run_study", "experiments.write", "maggn.train",
              "maggn.save_checkpoint", "cli.main")
CALL_P50 = ("magnitude.magnitude", "distance.value_and_gradient",
            "baselines.sliced_wasserstein")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _first_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory spans plus per-pass counters for the traced passes."""

    def __init__(self):
        self.spans = []                      # (name, start, end, parent, pass)
        self._stack = []                     # [span index, child seconds]
        self.pass_id = -1
        self.self_s = defaultdict(float)     # (pass, span name) -> seconds
        self.durations = defaultdict(list)   # name -> inclusive seconds
        self.counts = defaultdict(float)     # (pass, counter) -> value
        self.maxima = defaultdict(float)     # counter -> max over the run
        self.pairs = defaultdict(set)        # pass -> distinct (X, Y) keys
        self.passes = []
        self._saved = []
        self._origin = time.perf_counter()

    # -- installing -------------------------------------------------------
    def install(self, pass_id: int) -> None:
        """Wrap every boundary for one pass."""
        self.pass_id = pass_id
        self.passes.append(pass_id)
        for path, attr, name, hook in SPANS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn, hook))
        for path, attr, hook in COUNTERS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(fn, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def root(self, name, fn):
        """A span around a call the benchmark makes itself (cli.main)."""
        return self._span(name, fn, None)

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append([idx, 0.0])
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[idx] = (name, start - self._origin, end - self._origin,
                                   parent, self.pass_id)
                self.self_s[self.pass_id, name] += dur - child
                self.counts[self.pass_id, name + ".calls"] += 1
                self.durations[name].append(dur)
                if hook is not None:
                    self._count(hook, args, kwargs, result, exc)
        return traced

    def _counter(self, fn, hook):
        def counted(*args, **kwargs):
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._count(hook, args, kwargs, result, exc)
        return counted

    def _count(self, hook, args, kwargs, result, exc):
        c = self.counts
        p = self.pass_id
        if hook == "pair":
            x, y = args[0], args[1]
            self.pairs[p].add(hash((x.coords.tobytes(), y.coords.tobytes())))
            if type(exc).__name__ == "CoincidentPoints":
                c[p, "distance.coincident_errors"] += 1
        elif hook == "geometry":
            c[p, "distance.matrices"] += 1
        elif hook == "pdist":
            c[p, "distance.matrices"] += 1
            n, dim = _first_arg(args, kwargs, 0, "X").coords.shape
            c[p, "core.pairwise_distances.bytes"] += 8 * n * n + 8 * n * dim
        elif hook == "uniform_words":  # normals draw through uniforms
            c[p, "core.rng.words"] += _first_arg(args, kwargs, 1, "count")
        elif hook == "swap_words":
            c[p, "core.rng.words"] += max(_first_arg(args, kwargs, 1, "n") - 1, 0)
        elif hook == "solve":
            if type(exc).__name__ == "CholeskyFailure":
                c[p, "magnitude.failures"] += 1
            if exc is not None:
                return
            n = args[0].shape[0]
            c[p, "magnitude.rows"] += n
            c[p, "magnitude.cholesky_flops"] += n ** 3 / 3.0
            _, residual, hint, _ = result
            m = self.maxima
            m["magnitude.residual_max"] = max(m["magnitude.residual_max"], residual)
            m["magnitude.cond_hint_max"] = max(m["magnitude.cond_hint_max"], hint)
        elif hook == "w1d":
            c[p, "baselines.wasserstein_1d.calls"] += 1

    # -- results ----------------------------------------------------------
    def _geometry_per_pair(self, p):
        pairs = len(self.pairs[p])
        return self.counts[p, "distance.matrices"] / pairs if pairs else 0.0

    def metrics(self) -> tuple[dict, bool]:
        """Per-layer values per traced pass, and whether the counts repeated.

        Times are medians over the traced passes; a call's us_p50 pools the
        calls of every traced pass."""
        passes = self.passes
        out = {}
        for name in SELF_TIMES:
            out[name + ".self_s"] = statistics.median(self.self_s[p, name] for p in passes)
        for name in CALL_P50:
            durs = self.durations.get(name)
            out[name + ".us_p50"] = statistics.median(durs) * 1e6 if durs else 0.0
        repeat = True
        for name in COUNTS:
            values = {self.counts[p, name] for p in passes}
            repeat &= len(values) == 1
            out[name] = values.pop()
        ratios = {self._geometry_per_pair(p) for p in passes}
        repeat &= len(ratios) == 1
        out["distance.geometry_per_pair"] = ratios.pop()
        out["magnitude.residual_max"] = self.maxima["magnitude.residual_max"]
        out["magnitude.cond_hint_max"] = self.maxima["magnitude.cond_hint_max"]
        return out, repeat

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start, 9),
                                     "end": round(end, 9), "parent": parent,
                                     "pass": pass_id}) + "\n")
