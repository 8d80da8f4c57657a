"""Traced in-process run of ``ecindex.pipeline.run_pipeline``.

The layers' functions are wrapped by rebinding their names in the ecindex
module namespaces for the length of one run, so nothing under ``src/``
changes. Each wrapped call records a span (name, start, end, parent) in
memory; a few wrappers also count work at the boundary (rows parsed, matrices
eigendecomposed, bytes written). A sampling thread reads the process RSS so
each layer's memory rise can be attributed to its spans. The per-layer
metrics are derived from span self times and the counts once the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps

#: (module under ecindex, attribute, span name). A name bound in several
#: modules is wrapped in each, since each module looks it up in its own
#: namespace.
SPANS = (
    ("pipeline", "parse_long_records", "ingest.parse"),
    ("pipeline", "pivot_to_matrix", "ingest.pivot"),
    ("pipeline", "left_tail_filter", "ingest.filter"),
    ("pipeline", "drop_empty_margins", "ingest.filter"),
    ("pipeline", "compute_rca", "incidence.rca"),
    ("pipeline", "binarize", "incidence.binarize"),
    ("pipeline", "prune_degenerate", "incidence.prune"),
    ("pipeline", "largest_component", "spectral.component"),
    ("pipeline", "eci", "spectral.eci"),
    ("spectral", "eci", "spectral.eci"),
    ("pipeline", "pci", "spectral.pci"),
    ("pipeline", "extensive_scores", "spectral.extensive"),
    ("pipeline", "method_of_reflections", "spectral.reflections"),
    ("spectral", "similarity_intensive", "spectral.similarity"),
    ("spectral", "similarity_extensive", "spectral.similarity"),
    ("spectral", "eigendecompose", "spectral.eigendecompose"),
    ("pipeline", "proximity", "relatedness.proximity"),
    ("pipeline", "relatedness_density", "relatedness.density"),
    ("pipeline", "write_incidence", "io.write.incidence"),
    ("pipeline", "write_scores", "io.write.scores"),
    ("pipeline", "write_eigensolution", "io.write.scores"),
    ("pipeline", "write_proximity", "io.write.proximity_matrix"),
    ("pipeline", "write_proximity_edges", "io.write.proximity_edges"),
    ("pipeline", "write_density", "io.write.density"),
    ("pipeline", "_write_trajectory", "io.write.reflections"),
    ("pipeline", "compare_vectors", "pipeline.compare"),
    ("pipeline", "emit_figure_data", "pipeline.compare"),
    ("_io", "write_rows", "io.write_rows"),
    ("pipeline", "write_rows", "io.write_rows"),
    ("spectral", "write_rows", "io.write_rows"),
    ("relatedness", "write_rows", "io.write_rows"),
)

#: (module, attribute) wrapped for their counts only, without a span, so
#: their time stays in the caller's self time.
COUNTED = (
    ("spectral", "bipartite_components"),
    ("spectral", "_scores_for_index"),
)

MB = 1024 * 1024


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def run(self, name: str, fn, *args, **kwargs):
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            self._count(name, args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result

        return counted

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "ingest.parse":
            self.counts["ingest.rows"] += len(result)
        elif name == "incidence.prune":
            self.counts["incidence.cells"] += result[0].values.size
        elif name == "spectral.eigendecompose":
            n = args[0].values.shape[0]
            self.counts["spectral.eigendecompose_calls"] += 1
            self.counts["spectral.eig_n3_computed"] += n**3
            self.counts["eigenpairs_computed"] += n
        elif name == "bipartite_components":
            self.counts["spectral.connectivity_checks"] += 1
        elif name == "_scores_for_index":
            self.counts["eigenpairs_used"] += 1
        elif name == "io.write_rows":
            self.counts["io.bytes_written"] += os.path.getsize(args[0])


class instrumented:
    """Context manager: every binding in SPANS and COUNTED wrapped for one tracer.

    Bindings a version of ecindex does not have are skipped and listed in
    ``missing``, so a renamed function shows up as a gap, not a crash.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "instrumented":
        for m, attr, name in (*SPANS, *((m, attr, None) for m, attr in COUNTED)):
            mod = importlib.import_module(f"ecindex.{m}")
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{m}.{attr}")
                continue
            wrapper = self.tracer._wrap(name, original) if name else self.tracer._counted(attr, original)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


class RssSampler:
    """Background thread sampling this process's resident set size."""

    def __init__(self, period_s: float = 0.002):
        self.period_s = period_s
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self) -> "RssSampler":
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._read()
        os.close(self._fd)

    def _read(self) -> None:
        resident = int(os.pread(self._fd, 128, 0).split()[1])
        self.samples.append((time.perf_counter(), resident * self._page))

    def _sample(self) -> None:
        while not self._stop.wait(self.period_s):
            self._read()

    def rise_mb(self, start: float, end: float) -> float:
        """Peak RSS seen during [start, end] above the last sample before it."""
        before = [rss for t, rss in self.samples if t <= start]
        during = [rss for t, rss in self.samples if start <= t <= end]
        base = before[-1] if before else self.samples[0][1]
        return max(0, max(during, default=base) - base) / MB


def traced_run(cfg) -> tuple[Tracer, RssSampler, list[str]]:
    """Run the pipeline once under tracing; returns spans, RSS samples and
    the bindings that could not be wrapped."""
    from ecindex.pipeline import run_pipeline

    tracer = Tracer()
    with RssSampler() as rss, instrumented(tracer) as inst:
        tracer.run("pipeline.run", run_pipeline, cfg)
    return tracer, rss, inst.missing


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(tracer: Tracer, rss: RssSampler) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in s, memory in MB)."""
    spans = tracer.spans
    own = self_times(spans)
    names = [span.name for span in spans]

    def total(name, of=None):
        return sum((of or [s.duration for s in spans])[k] for k, n in enumerate(names) if n == name)

    def parent_name(span):
        return names[span.parent] if span.parent is not None else None

    def rise(prefix):
        return max((rss.rise_mb(s.start, s.end) for s in spans if s.name.startswith(prefix)), default=0.0)

    root = spans[0]
    top = [s for s in spans if s.parent == root.id]
    counts = tracer.counts
    write_s = sum(s.duration for s in spans
                  if s.name.startswith("io.") and not (parent_name(s) or "").startswith("io."))
    untraced = root.duration - sum(s.duration for s in top)
    return {
        "ingest.parse_s": total("ingest.parse"),
        "ingest.pivot_s": total("ingest.pivot"),
        "ingest.filter_s": total("ingest.filter"),
        "ingest.rows": counts["ingest.rows"],
        "ingest.rss_rise_mb": rise("ingest."),
        "incidence.rca_s": total("incidence.rca"),
        "incidence.binarize_s": total("incidence.binarize"),
        "incidence.prune_s": total("incidence.prune"),
        "incidence.cells": counts["incidence.cells"],
        "spectral.component_s": total("spectral.component"),
        "spectral.eci_s": sum(own[s.id] for s in spans
                              if s.name == "spectral.eci" and parent_name(s) != "spectral.pci"),
        "spectral.pci_s": total("spectral.pci", own),
        "spectral.pci_nested_eci_s": sum(s.duration for s in spans
                                         if s.name == "spectral.eci" and parent_name(s) == "spectral.pci"),
        "spectral.extensive_s": total("spectral.extensive", own),
        "spectral.reflections_s": total("spectral.reflections"),
        "spectral.similarity_s": total("spectral.similarity"),
        "spectral.eigendecompose_s": total("spectral.eigendecompose"),
        "spectral.eigendecompose_calls": counts["spectral.eigendecompose_calls"],
        "spectral.connectivity_checks": counts["spectral.connectivity_checks"],
        "spectral.eig_n3_computed": counts["spectral.eig_n3_computed"],
        "spectral.eigenpairs_used_ratio": (
            counts["eigenpairs_used"] / counts["eigenpairs_computed"] if counts["eigenpairs_computed"] else 0.0
        ),
        "spectral.rss_rise_mb": rise("spectral."),
        "relatedness.proximity_s": total("relatedness.proximity"),
        "relatedness.density_s": total("relatedness.density"),
        "relatedness.rss_rise_mb": rise("relatedness."),
        "io.write_s": write_s,
        "io.write.incidence_s": total("io.write.incidence"),
        "io.write.proximity_matrix_s": total("io.write.proximity_matrix"),
        "io.write.proximity_edges_s": total("io.write.proximity_edges"),
        "io.write.density_s": total("io.write.density"),
        "io.write.reflections_s": total("io.write.reflections"),
        "io.write.scores_s": total("io.write.scores"),
        "io.bytes_written": counts["io.bytes_written"],
        "io.mb_per_s": counts["io.bytes_written"] / MB / write_s if write_s else 0.0,
        "pipeline.compare_s": sum(s.duration for s in top if s.name == "pipeline.compare"),
        "pipeline.run_s": root.duration,
        "pipeline.untraced_s": untraced,
        "pipeline.traced_share": 1.0 - untraced / root.duration,
    }


def span_records(tracer: Tracer) -> list[dict]:
    """Spans as plain records, times in seconds from the start of the run."""
    origin = tracer.spans[0].start
    own = self_times(tracer.spans)
    return [
        {"id": s.id, "name": s.name, "parent": s.parent,
         "start_s": s.start - origin, "end_s": s.end - origin, "self_s": own[s.id]}
        for s in tracer.spans
    ]


def span_tree(records: list[dict]) -> str:
    """Indented tree, one line per span, in start order."""
    depth: dict[int, int] = {}
    lines = [f"{'span':<40} {'start_s':>9} {'end_s':>9} {'self_s':>9}  parent"]
    for r in records:
        depth[r["id"]] = 0 if r["parent"] is None else depth[r["parent"]] + 1
        label = "  " * depth[r["id"]] + r["name"]
        parent = "-" if r["parent"] is None else records[r["parent"]]["name"]
        lines.append(f"{label:<40} {r['start_s']:9.4f} {r['end_s']:9.4f} {r['self_s']:9.4f}  {parent}")
    return "\n".join(lines)


def medians(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
