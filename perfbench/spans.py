"""Span recording around tourflow's public functions, and per-layer metrics.

The traced child process calls :meth:`Recorder.install`, which replaces
each function named in :data:`WRAPPED` by a wrapper in the module
namespace that the pipeline looks it up in.  Nothing in ``src/``
changes: the CLI and ``motif_zscores`` resolve these names through
their module globals at call time, so the wrappers see every call.
Spans are kept in memory and written out when the child ends.

:func:`layer_metrics` turns one child's spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

# (module the pipeline looks the name up in, attribute, metric name).
# triad_census is wrapped twice: the CLI calls it for the observed
# census and motif_zscores calls it once per null sample.
WRAPPED = (
    ("tourflow.cli", "parse_checkins", "ingest.parse_checkins"),
    ("tourflow.cli", "infer_homes", "ingest.infer_homes"),
    ("tourflow.cli", "filter_countries", "ingest.filter_countries"),
    ("tourflow.cli", "build_mobility_graph", "ingest.build_mobility_graph"),
    ("tourflow.cli", "parse_flow_matrix", "ingest.parse_flow_matrix"),
    ("tourflow.cli", "topk_out", "graph.topk"),
    ("tourflow.cli", "topk_in", "graph.topk"),
    ("tourflow.cli", "structural_report", "metrics.structural_report"),
    ("tourflow.cli", "centrality_table", "metrics.centrality_table"),
    ("tourflow.cli", "scc", "metrics.scc"),
    ("tourflow.cli", "distance_matrix", "clustering.distance_matrix"),
    ("tourflow.cli", "average_linkage", "clustering.average_linkage"),
    ("tourflow.cli", "triad_census", "census.triad_census"),
    ("tourflow.cli", "motif_zscores", "census.motif_zscores"),
    ("tourflow.census", "rewire", "census.rewire"),
    ("tourflow.census", "triad_census", "census.triad_census"),
    ("tourflow.cli", "regional_flows", "regional.regional_flows"),
    ("tourflow.cli", "feature_matrix", "compare.feature_matrix"),
    ("tourflow.cli", "avg_distance_matrix", "compare.avg_distance_matrix"),
    ("tourflow.cli", "country_correlations", "compare.country_correlations"),
    ("tourflow.cli", "cmd_build", "cli.build"),
    ("tourflow.cli", "cmd_analyze", "cli.analyze"),
)

FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in WRAPPED if not name.startswith("cli.")))

# Per-layer metric names and units, in report order.
PER_LAYER = (
    *((f"{name}.{suffix}", unit) for name in FUNCTIONS
      for suffix, unit in (("busy_s", "s"), ("calls", "count"))),
    ("census.rewire.call_ms_p50", "ms"),
    ("census.rewire.call_ms_p99", "ms"),
    ("census.swaps_attempted", "count"),
    ("census.rewire.swaps_per_s", "1/s"),
    ("census.rewire.edge_turnover", "ratio"),
    ("census.rewire.analyze_share", "ratio"),
    ("census.motif_zscores.self_s", "s"),
    ("ingest.rows_per_s", "1/s"),
    ("ingest.skipped_share", "ratio"),
    ("ingest.wall_share", "ratio"),
    ("cli.build_s", "s"),
    ("cli.analyze_s", "s"),
    ("cli.analyze.self_s", "s"),
    ("cli.bundle_files", "count"),
    ("cli.bundle_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.slowdown", "ratio"),
)


class Recorder:
    """Spans of one process: name, start, end and the index of the parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append({"name": name, "parent": self._open[-1] if self._open else None})
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index].update(start=start, end=end)
            if name == "census.rewire":
                # Counted after the span ends, so only motif_zscores' self time sees it.
                edges = args[0].edges
                default = 100  # rewire's default swaps_per_edge
                swaps = kwargs.get("swaps_per_edge", args[2] if len(args) > 2 else default)
                self.spans[index].update(
                    edges=len(edges), swaps=len(edges) * swaps,
                    moved=len(edges.keys() - result.edges.keys()))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans: list[dict], index: int) -> float:
    """A span's duration minus the part of it that its children cover."""
    span = spans[index]
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == index]
    return span["end"] - span["start"] - _covered(children)


def check_nesting(spans: list[dict]) -> None:
    """Raise if a span lies outside its parent or overlaps a sibling."""
    by_parent: dict[int | None, list[dict]] = {}
    for span in spans:
        if "end" not in span:
            raise ValueError(f"span {span['name']} never ended")
        parent = span["parent"]
        if parent is not None and not (
            spans[parent]["start"] <= span["start"] <= span["end"] <= spans[parent]["end"]
        ):
            raise ValueError(f"span {span['name']} lies outside its parent")
        by_parent.setdefault(parent, []).append(span)
    for siblings in by_parent.values():
        ordered = sorted(siblings, key=lambda s: s["start"])
        for left, right in zip(ordered, ordered[1:]):
            if right["start"] < left["end"]:
                raise ValueError(f"spans {left['name']} and {right['name']} overlap")


def layer_metrics(spans: list[dict], manifest: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, except those needing its wall time or bundle.

    Raises ValueError when the spans are inconsistent: a span outside its
    parent, overlapping siblings, or analyze's traced children plus its
    self time not adding up to its duration.
    """
    check_nesting(spans)
    metrics: dict[str, float] = {}
    for name in FUNCTIONS:
        own = [s for s in spans if s["name"] == name]
        metrics[f"{name}.busy_s"] = sum(s["end"] - s["start"] for s in own)
        metrics[f"{name}.calls"] = len(own)

    rewires = [s for s in spans if s["name"] == "census.rewire"]
    # Every workload's ensemble has at least two samples, so rewire runs at least twice.
    cuts = statistics.quantiles(
        [1000.0 * (s["end"] - s["start"]) for s in rewires], n=100, method="inclusive")
    metrics["census.rewire.call_ms_p50"] = cuts[49]
    metrics["census.rewire.call_ms_p99"] = cuts[98]
    swaps = sum(s["swaps"] for s in rewires)
    metrics["census.swaps_attempted"] = swaps
    metrics["census.rewire.swaps_per_s"] = swaps / metrics["census.rewire.busy_s"]
    metrics["census.rewire.edge_turnover"] = (
        sum(s["moved"] for s in rewires) / sum(s["edges"] for s in rewires))
    metrics["census.motif_zscores.self_s"] = sum(
        self_time(spans, i) for i, s in enumerate(spans) if s["name"] == "census.motif_zscores")

    rows = skipped = 0
    for stats in manifest["datasets"].values():
        if stats["kind"] == "checkins":
            rows += stats["records"] + stats["skipped_rows"]
            skipped += stats["skipped_rows"]
    parse = metrics["ingest.parse_checkins.busy_s"]
    metrics["ingest.rows_per_s"] = rows / parse if parse else 0.0
    metrics["ingest.skipped_share"] = skipped / rows if rows else 0.0

    (build,) = [i for i, s in enumerate(spans) if s["name"] == "cli.build"]
    (analyze,) = [i for i, s in enumerate(spans) if s["name"] == "cli.analyze"]
    analyze_s = spans[analyze]["end"] - spans[analyze]["start"]
    metrics["cli.build_s"] = spans[build]["end"] - spans[build]["start"]
    metrics["cli.analyze_s"] = analyze_s
    metrics["cli.analyze.self_s"] = self_time(spans, analyze)
    metrics["census.rewire.analyze_share"] = metrics["census.rewire.busy_s"] / analyze_s
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == analyze)
    if abs(children + metrics["cli.analyze.self_s"] - analyze_s) > 1e-6 * max(analyze_s, 1.0):
        raise ValueError(
            f"analyze coverage: children {children:.6f}s + self "
            f"{metrics['cli.analyze.self_s']:.6f}s != {analyze_s:.6f}s")
    return metrics
