"""In-memory spans around the calls into each ``unml`` layer.

The tracer replaces module attributes with timing wrappers: the names the
callers look up at call time (``unml.cli.best_clustering``,
``unml.mixture.cluster``, ...), so nothing under ``src/`` changes.  Each span
records its name, start, end, parent span and operation id; counters record
work done (CSV bytes, Monte Carlo samples) at the same boundaries.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import os
from collections import defaultdict
from time import perf_counter

# (module, attribute callers look up, span name); one span name may be bound
# under several modules because each caller resolves its own global
TARGETS = (
    ("unml.cli", "load_csv", "stats.load_csv"),
    ("unml.cli", "choose_scale", "stats.choose_scale"),
    ("unml.cli", "best_clustering", "mixture.best_clustering"),
    ("unml.cli", "build_report", "mixture.build_report"),
    ("unml.cli", "compute_mle", "stats.compute_mle"),
    ("unml.cli", "log_norm_bound", "gaussian.log_norm_bound"),
    ("unml.cli", "mc_log_norm_dataspace", "verify.mc_log_norm_dataspace"),
    ("unml.mixture", "cluster", "mixture.cluster"),
    ("unml.mixture", "complete_data_term", "mixture.complete_data_term"),
    ("unml.mixture", "compute_mle", "stats.compute_mle"),
    ("unml.mixture", "log_norm_bound", "gaussian.log_norm_bound"),
    ("unml.stats", "compute_mle", "stats.compute_mle"),
)

ROOT = "cli.main"


def _count_csv(args, result):
    return {"stats.load_csv.bytes": os.path.getsize(args[0])}


def _count_mc(args, result):
    return {"verify.mc.samples": result.samples, "verify.mc.accepted": result.accepted}


COUNTERS = {"stats.load_csv": _count_csv, "verify.mc_log_norm_dataspace": _count_mc}


class Tracer:
    """Span recorder for one process; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.op]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:   # the layer was removed; its metrics read 0
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
        return calls, total, self_s

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "op", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([i, op, name, repr(start), repr(end), parent])


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation layer metrics named ``<module>.<function>.<quantity>``."""
    calls, total, self_s = tracer.layer_totals()
    counts = tracer.counts
    per_op = 1.0 / ops

    def ratio(a, b):
        return a / b if b else 0.0

    mle_in_cluster = sum(1 for name, _, _, parent, _ in tracer.spans
                         if name == "stats.compute_mle" and parent >= 0
                         and tracer.spans[parent][0] == "mixture.cluster")
    samples = counts["verify.mc.samples"]
    return {
        "mixture.build_report.self_s": self_s["mixture.build_report"] * per_op,
        "gaussian.log_norm_bound.calls": calls["gaussian.log_norm_bound"] * per_op,
        "gaussian.log_norm_bound.s": total["gaussian.log_norm_bound"] * per_op,
        "mixture.cluster.calls": calls["mixture.cluster"] * per_op,
        "mixture.cluster.s": total["mixture.cluster"] * per_op,
        "mixture.cluster.ms_per_call": 1e3 * ratio(total["mixture.cluster"],
                                                   calls["mixture.cluster"]),
        "mixture.cluster.mle_per_call": ratio(mle_in_cluster, calls["mixture.cluster"]),
        "mixture.best_clustering.s": total["mixture.best_clustering"] * per_op,
        "mixture.complete_data_term.calls": calls["mixture.complete_data_term"] * per_op,
        "mixture.complete_data_term.s": total["mixture.complete_data_term"] * per_op,
        "stats.compute_mle.calls": calls["stats.compute_mle"] * per_op,
        "stats.compute_mle.s": total["stats.compute_mle"] * per_op,
        "verify.mc_log_norm_dataspace.s": total["verify.mc_log_norm_dataspace"] * per_op,
        "verify.mc.us_per_1e5_samples": 1e11 * ratio(
            total["verify.mc_log_norm_dataspace"], samples),
        "verify.mc.accept_ratio": ratio(counts["verify.mc.accepted"], samples),
        "stats.load_csv.s": total["stats.load_csv"] * per_op,
        "stats.load_csv.bytes": counts["stats.load_csv.bytes"] * per_op,
        "stats.choose_scale.s": total["stats.choose_scale"] * per_op,
        "cli.self_s": self_s[ROOT] * per_op,
    }
