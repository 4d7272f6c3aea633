"""Per-layer spans and counts, recorded from outside the package.

``from .x import f`` binds a second name for ``f`` in the importing
module, so each public function is wrapped where the caller looks it up:
``defclust.cli.build_dendrogram`` for the CLI, and
``defclust.evaluation.cut_at_threshold`` for the calls ``run_sweep``
makes.  Each wrapped call records one span (name, start, end, parent,
and the op it belongs to) and adds its counts.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from output_gate import digest

# (module, attribute, span name).  The span name is the layer that owns
# the function, whichever module the name is looked up in.
WRAPPED = (
    ("cli", "load_corpus", "corpus.load_corpus"),
    ("cli", "build_matrix", "corpus.build_matrix"),
    ("cli", "energy_matrix", "distance.energy_matrix"),
    ("cli", "energy_distance_vector", "distance.energy_distance_vector"),
    ("cli", "build_dendrogram", "hac.build_dendrogram"),
    ("cli", "cut_at_threshold", "hac.cut_at_threshold"),
    ("cli", "run_sweep", "evaluation.run_sweep"),
    ("cli", "sweep_to_csv", "evaluation.sweep_to_csv"),
    ("cli", "compile_search_patterns", "patterns.compile_search_patterns"),
    ("cli", "scan_text", "patterns.scan_text"),
    ("cli", "candidates_to_corpus", "patterns.candidates_to_corpus"),
    ("evaluation", "cut_at_threshold", "hac.cut_at_threshold"),
    ("evaluation", "identify_intruders", "evaluation.identify_intruders"),
)

ROOT_SPAN = "cli.main"
OBSERVE_SPAN = "trace.observe"

# Per-layer metrics: name -> unit.  Times are seconds per pass over the
# workload's inputs; everything else is a count per pass, which must
# repeat exactly from pass to pass and run to run.  Where each should
# show end to end:
# - distance.*: wall_s_p50 and docs_per_s on topics-1k-sweep (about a
#   third of the op), barely on per-term-sweep.
# - hac.build_dendrogram_s, hac.merges: wall_s_p50 on topics-1k-sweep
#   (about two thirds) and extract-dups-cluster.  hac.equal_height_merges
#   counts merges at the height of the one before (ties) and must not
#   change.  peak_alloc_mb on topics-1k-sweep follows the n x n arrays of
#   hac and distance.
# - evaluation.*, hac.cut_*: wall_s_p50 on per-term-sweep, a few percent
#   on topics-1k-sweep, nothing on extract-dups-cluster.
# - patterns.*: wall_s_p50 on extract-dups-cluster only.
# - corpus.*, cli.self_s: per-term-sweep.
TIME_METRICS = {
    "cli.self_s": "s",
    "corpus.load_corpus_s": "s",
    "corpus.build_matrix_s": "s",
    "distance.energy_matrix_s": "s",
    "distance.energy_distance_vector_s": "s",
    "hac.build_dendrogram_s": "s",
    "hac.cut_at_threshold_s": "s",
    "evaluation.run_sweep_s": "s",
    "evaluation.run_sweep_self_s": "s",
    "evaluation.identify_intruders_s": "s",
    "evaluation.sweep_to_csv_s": "s",
    "patterns.compile_search_patterns_s": "s",
    "patterns.scan_text_s": "s",
    "patterns.candidates_to_corpus_s": "s",
    "distance.energy_gmacs_per_s": "GMAC/s",
    "trace_overhead_s": "s",
}
COUNT_METRICS = {
    "corpus.docs": "count",
    "corpus.vocab": "count",
    "corpus.nnz": "count",
    "distance.energy_macs": "MAC",
    "distance.energy_bytes": "B",
    "distance.energy_peak": "int",
    "distance.energy_bound_log2": "log2",
    "distance.distinct_distances": "count",
    "hac.merges": "count",
    "hac.equal_height_merges": "count",
    "hac.cut_calls": "count",
    "evaluation.grid_points": "count",
    "patterns.search_patterns": "count",
    "patterns.bytes_scanned": "B",
    "patterns.candidates": "count",
    "patterns.docs_kept_ratio": "ratio",
}
LAYER_METRICS = {**TIME_METRICS, **COUNT_METRICS}


class Tracer:
    """Spans and counts of wrapped calls; one instance per benchmark run."""

    def __init__(self) -> None:
        # (span id, parent id, op id, name, start, end)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.merge_hashes: list[str] = []
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op = span_id
        self.spans.append((span_id, parent, self._op, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self._op, name, start, end)

    def wrap(self, fn, name: str, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                # A span of its own, so that counting is not charged to
                # the caller's self time.
                with self.span(OBSERVE_SPAN):
                    observe(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = []
        observers = _observers(modules["hac"])
        try:
            for module_name, attr, span_name in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name, observers.get(span_name)))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take_pass(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans from ``first_span`` on; resets counts."""
        spans = self.spans[first_span:]
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, name, start, end in spans:
            total[name] += end - start
            if parent is not None:
                child_time[parent] += end - start

        def self_time(name: str) -> float:
            return sum(
                (
                    end - start - child_time[span_id]
                    for span_id, _, _, span_name, start, end in spans
                    if span_name == name
                ),
                0.0,
            )

        counts, maxima = self.counts, self.maxima
        metrics = {
            f"{name}_s": total[name]
            for name in {span_name for _, _, span_name in WRAPPED}
        }
        metrics["cli.self_s"] = self_time(ROOT_SPAN)
        metrics["evaluation.run_sweep_self_s"] = self_time("evaluation.run_sweep")
        energy_s = total["distance.energy_matrix"]
        metrics["distance.energy_gmacs_per_s"] = (
            counts["distance.energy_macs"] / energy_s / 1e9 if energy_s else 0.0
        )
        for name in COUNT_METRICS:
            metrics[name] = maxima[name] if name in maxima else counts[name]
        candidates = counts["patterns.candidates"]
        metrics["patterns.docs_kept_ratio"] = (
            counts["patterns.docs_kept"] / candidates if candidates else 0.0
        )
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        return metrics

    def spans_as_records(self) -> list[dict]:
        return [
            {"id": s, "parent": p, "op": op, "name": name, "start": start, "end": end}
            for s, p, op, name, start, end in self.spans
        ]


def summarize_passes(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time metric over traced passes, and the count metrics,
    which must be identical in every pass; returns (metrics, errors)."""
    metrics = {}
    errors = []
    for name in TIME_METRICS:
        if name != "trace_overhead_s":
            metrics[name] = statistics.median(p[name] for p in passes)
    for name in COUNT_METRICS:
        values = {p[name] for p in passes}
        if len(values) != 1:
            errors.append(f"count {name} differs between passes: {sorted(values)}")
        metrics[name] = passes[0][name]
    return metrics, errors


def _observers(hac) -> dict:
    """Count hooks, keyed by span name: observe(tracer, args, result)."""

    def load_corpus(tracer, args, docs):
        tracer.counts["corpus.docs"] += len(docs)

    def build_matrix(tracer, args, matrix):
        tracer.counts["corpus.vocab"] += matrix.p
        tracer.counts["corpus.nnz"] += int(matrix.data.sum(dtype=np.int64))

    def energy_matrix(tracer, args, energy):
        data = args[0].data
        n, p = data.shape
        t_max = int(data.sum(axis=1, dtype=np.int64).max())
        tracer.counts["distance.energy_macs"] += n * n * p + n**3
        # Computed, not measured: int64 operands read and result written by
        # X @ X.T (2np in, n^2 out) and G @ G (2n^2 in, n^2 out).
        tracer.counts["distance.energy_bytes"] += 8 * (2 * n * p + 4 * n * n)
        peak = int(energy.gram_sq.max())
        bound = math.log2(n * t_max * t_max)
        tracer.maxima["distance.energy_peak"] = max(tracer.maxima["distance.energy_peak"], peak)
        tracer.maxima["distance.energy_bound_log2"] = max(
            tracer.maxima["distance.energy_bound_log2"], bound
        )

    def energy_distance_vector(tracer, args, dist):
        tracer.counts["distance.distinct_distances"] += int(np.unique(dist.values).size)

    def build_dendrogram(tracer, args, tree):
        merges = tree.merges
        tracer.counts["hac.merges"] += len(merges)
        tracer.counts["hac.equal_height_merges"] += sum(
            later.distance == earlier.distance for earlier, later in zip(merges, merges[1:])
        )
        tracer.merge_hashes.append(digest(hac.dendrogram_to_csv(tree).encode()))

    def cut_at_threshold(tracer, args, clustering):
        tracer.counts["hac.cut_calls"] += 1

    def run_sweep(tracer, args, rows):
        tracer.counts["evaluation.grid_points"] += len(rows)

    def compile_search_patterns(tracer, args, patterns):
        tracer.counts["patterns.search_patterns"] += len(patterns)

    def scan_text(tracer, args, candidates):
        tracer.counts["patterns.bytes_scanned"] += len(args[0].encode("utf-8"))
        tracer.counts["patterns.candidates"] += len(candidates)

    def candidates_to_corpus(tracer, args, docs):
        tracer.counts["patterns.docs_kept"] += len(docs)

    return {
        "corpus.load_corpus": load_corpus,
        "corpus.build_matrix": build_matrix,
        "distance.energy_matrix": energy_matrix,
        "distance.energy_distance_vector": energy_distance_vector,
        "hac.build_dendrogram": build_dendrogram,
        "hac.cut_at_threshold": cut_at_threshold,
        "evaluation.run_sweep": run_sweep,
        "patterns.compile_search_patterns": compile_search_patterns,
        "patterns.scan_text": scan_text,
        "patterns.candidates_to_corpus": candidates_to_corpus,
    }
