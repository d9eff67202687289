"""Batch command-line pipeline: build, analyze, plot, export.

Configuration lives in a flat ``key = value`` text file; any key can be
overridden on the command line with ``--set key=value`` (flags win).
All randomness derives from the single ``seed`` key, every emitted file
carries a metadata header (tool version, config hash, seed), a command
commits all of its files or none, and repeated runs with the same config
produce byte-identical bundles.

``analyze`` runs its Top-k units (one direction and k each, over every
dataset), and ``build`` parses a check-in log in byte pieces, through
:func:`tourflow.lanes.run_lanes`, which deals them to one lane per CPU
of the process's affinity mask and raises the earliest failure.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .census import (
    BATCH_MIN_ENSEMBLE, MotifZScores, _null_counts, motif_zscores, triad_census, z_percent_diff,
    z_percent_diff_csv)
from .clustering import average_linkage, distance_matrix, filter_singletons
from .compare import (
    EXPECTED_SUBGRAPHS, FeatureMatrix, avg_distance_matrix, country_correlations, feature_matrix)
from .errors import ConfigError, ConvergenceError, ParseError, TourflowError
from .graph import EXPORT_FORMATS, MobilityGraph, export_graph, topk_in, topk_out
from .ingest import (
    build_mobility_graph,
    filter_countries,
    infer_homes,
    parse_checkins,
    parse_flow_matrix,
    read_table,
)
from .lanes import run_lanes
from .metrics import MEASURES, centrality_table, scc, structural_report
from .plots import bar_svg, heatmap_svg, strip_svg
from .regional import (
    RegionMap,
    RegionalFlowMatrix,
    mean_abs_share_diff,
    regional_flows,
    share_diff,
    to_shares,
)
from .seeds import derive_seed

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_CONVERGENCE = 4
EXIT_DOMAIN = 5

DATASET_NAMES = ("a", "b")

PLOT_KINDS = ("heatmap", "strip", "bar")


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline, with its default value."""

    dataset_a_checkins: str = ""
    dataset_a_flows: str = ""
    dataset_a_format: str = "csv"
    dataset_a_label: str = ""
    dataset_b_checkins: str = ""
    dataset_b_flows: str = ""
    dataset_b_format: str = "csv"
    dataset_b_label: str = ""
    checkin_threshold: int = 1000
    strict: bool = True
    k_values: tuple[int, ...] = (1, 2, 3)
    pagerank_damping: float = 0.85
    pagerank_tol: float = 1e-9
    pagerank_max_iter: int = 1_000_000
    ensemble_size: int = 1000
    swaps_per_edge: int = 100
    seed: int = 0
    n_clusters: int = 10
    region_map: str = ""
    output_dir: str = "out"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_k_values(text: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in text.replace(",", " ").split())
    if not values or any(k < 1 for k in values) or len(set(values)) != len(values):
        raise ValueError(f"k_values must be distinct integers >= 1, got {text!r}")
    return tuple(sorted(values))


# Each config key is read by the parser of its default's type.
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_k_values, str: str.strip}


def _coerce(key: str, text: str) -> object:
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[type(_DEFAULTS[key])](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a flat key=value config file, then apply override pairs."""
    settings: dict[str, object] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
            key, _, value = line.partition("=")
            settings[key.strip()] = _coerce(key.strip(), value.strip())
    for pair in overrides or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        settings[key.strip()] = _coerce(key.strip(), value.strip())
    return replace(RunConfig(), **settings)  # type: ignore[arg-type]


def config_hash(config: RunConfig) -> str:
    payload = "\n".join(
        f"{f.name}={getattr(config, f.name)}" for f in sorted(fields(RunConfig), key=lambda f: f.name)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _meta_items(config: RunConfig | None) -> list[str]:
    """Every output's metadata: the tool version, then a config's hash and seed."""
    items = [f"tool: tourflow {__version__}"]
    if config is not None:
        items += [f"config: {config_hash(config)}", f"seed: {config.seed}"]
    return items


def _write_output(out: str, payload: bytes) -> None:
    """Write a single output file (plot or export) via a sibling temp file renamed over it.

    The temp file is named for this process and created exclusively, so
    a second writer never shares it and a symlink at its name is never
    followed: ``O_EXCL`` fails on any existing entry, a symlink included.
    """
    target = Path(out)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(payload)
        temp.replace(target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    print(f"wrote {target}")


def _listed_files(manifest: Path) -> set[str]:
    """The plain file names (no path separator) a manifest lists; none if it is unreadable."""
    try:
        files = json.loads(manifest.read_text(encoding="utf-8"))["files"]
        return {name for name in files
                if isinstance(name, str) and "/" not in name and name not in ("", ".", "..")}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


class _Bundle:
    """One command's output files, committed with their manifest as one, or not at all.

    Used as a context manager.  Entering it takes an exclusive ``flock``
    on the output directory itself, so a second command on the same
    directory fails before it stages anything; forked children share
    the lock.  Holding the lock, it removes any ``.staging`` entry a
    dead run left in the output directory and creates a fresh
    ``.staging`` directory, into which every process of the command
    writes each file at once.  Leaving the block normally hashes each
    staged file into the manifest, renames every file into place, the
    manifest last, removes ``.staging``, then deletes the files that the
    previous manifest of the same name listed and the new one does not;
    ``files`` then holds the committed names.  Leaving it by an
    exception removes ``.staging``, so the directory holds what it held
    before.  Every file carries the config's metadata: CSVs a ``# key:
    value`` header, JSON a leading ``"meta"`` object.  ``fields`` are
    the manifest's entries between ``meta`` and ``files``.
    """

    def __init__(self, config: RunConfig, manifest: str, fields: dict) -> None:
        self.outdir = Path(config.output_dir)
        self.staging = self.outdir / ".staging"
        self.manifest = manifest
        self.fields = fields
        self.meta = {"tool": "tourflow", "version": __version__,
                     "config": config_hash(config), "seed": config.seed}
        self.comment = "".join(f"# {item}\n" for item in _meta_items(config))
        self.files: list[str] = []

    def __enter__(self) -> _Bundle:
        self.created = not self.outdir.exists()
        self.outdir.mkdir(parents=True, exist_ok=True)
        self._lock = os.open(self.outdir, os.O_RDONLY)
        try:
            fcntl.flock(self._lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self._lock)
            raise OSError(
                f"output_dir {self.outdir} is in use by another tourflow run") from None
        try:
            self._remove_staging()
            self.staging.mkdir()
        except BaseException:
            os.close(self._lock)
            raise
        return self

    def write_csv(self, name: str, text: str) -> None:
        (self.staging / name).write_bytes((self.comment + text).encode("utf-8"))

    def write_json(self, name: str, fields: dict) -> None:
        text = json.dumps({"meta": self.meta, **fields}, indent=2) + "\n"
        (self.staging / name).write_bytes(text.encode("utf-8"))

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                try:
                    self._commit()
                except BaseException:
                    self._discard()
                    raise
            else:
                self._discard()
        finally:
            os.close(self._lock)

    def _remove_staging(self) -> None:
        """Remove ``.staging``; a file or symlink there is unlinked, never followed."""
        if self.staging.is_dir() and not self.staging.is_symlink():
            shutil.rmtree(self.staging)
        else:
            self.staging.unlink(missing_ok=True)

    def _commit(self) -> None:
        previous = _listed_files(self.outdir / self.manifest)
        names = sorted(os.listdir(self.staging))
        files = {name: hashlib.sha256((self.staging / name).read_bytes()).hexdigest()
                 for name in names}
        self.write_json(self.manifest, {**self.fields, "files": files})
        self.files = [*names, self.manifest]
        for name in self.files:
            (self.staging / name).replace(self.outdir / name)
        self.staging.rmdir()
        for name in sorted(previous - set(self.files)):
            (self.outdir / name).unlink(missing_ok=True)

    def _discard(self) -> None:
        self._remove_staging()
        if self.created:
            self.outdir.rmdir()


def _dataset_sources(config: RunConfig, name: str) -> tuple[str, str, str, str]:
    checkins = getattr(config, f"dataset_{name}_checkins")
    flows = getattr(config, f"dataset_{name}_flows")
    fmt = getattr(config, f"dataset_{name}_format")
    label = getattr(config, f"dataset_{name}_label") or name
    return checkins, flows, fmt, label


def _build_one(config: RunConfig, name: str) -> tuple[MobilityGraph, dict] | None:
    checkins, flows, fmt, label = _dataset_sources(config, name)
    if checkins and flows:
        raise ConfigError(f"dataset {name}: exactly one of checkins/flows may be set")
    if not checkins and not flows:
        return None
    if flows:
        graph = parse_flow_matrix(flows, label=label)
        stats = {"source": flows, "kind": "flow_matrix"}
    else:
        table = parse_checkins(checkins, fmt=fmt, strict=config.strict)
        homes = infer_homes(table)
        kept = filter_countries(table, config.checkin_threshold)
        if not kept:
            raise ValueError(
                f"dataset {name}: no country has more than checkin_threshold="
                f"{config.checkin_threshold} check-ins, so the graph would be empty")
        graph = build_mobility_graph(table, homes, kept, label=label)
        stats = {
            "source": checkins,
            "kind": "checkins",
            "records": table.record_count,
            "skipped_rows": table.skipped,
            "users": len(table.user_country_counts),
            "threshold": config.checkin_threshold,
            "countries_kept": len(kept),
        }
    stats.update({
        "label": label,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "total_weight": graph.total_weight,
    })
    return graph, stats


def cmd_build(config: RunConfig) -> int:
    """Build mobility graphs for the configured datasets."""
    dataset_stats: dict[str, dict] = {}  # filled in as each graph is staged
    with _Bundle(config, "build_manifest.json", {"datasets": dataset_stats}) as bundle:
        for name in DATASET_NAMES:
            result = _build_one(config, name)
            if result is None:
                continue
            graph, stats = result
            filename = f"graph_{name}.csv"
            bundle.write_csv(filename, export_graph(graph, "csv").decode("utf-8"))
            dataset_stats[name] = {**stats, "file": filename}
            print(f"dataset {name}: {graph.node_count} nodes, {graph.edge_count} edges -> "
                  f"{bundle.outdir / filename}")
        if not dataset_stats:
            raise ConfigError("no dataset configured: set dataset_a_checkins or dataset_a_flows")
    return EXIT_OK


def _topk_unit(
    config: RunConfig, bundle: _Bundle, region_map: RegionMap, averaged_k: set[int],
    graphs: dict[str, MobilityGraph], direction: str, k: int,
) -> dict[str, tuple[MotifZScores, FeatureMatrix | None, RegionalFlowMatrix | None]]:
    """Every report of the Top-k unit of ``direction`` and ``k``, staged through ``bundle``.

    Each dataset's reports run in turn, on its Top-k subgraph.  Where the
    two datasets' subgraphs share their node and arc counts and the
    ensemble is large enough to batch (``BATCH_MIN_ENSEMBLE``), dataset
    a's null model draws both ensembles as one ``_null_counts`` block.
    Returns, for each dataset, the subgraph's motif z-scores; for k in
    ``averaged_k`` (the averaged distances' inputs), its feature matrix;
    and for the largest k, whose subgraph the regional reports read, its
    regional shares.
    """
    topk = topk_out if direction == "out" else topk_in
    subgraphs = {name: topk(graph, k) for name, graph in graphs.items()}
    seeds = {name: derive_seed(derive_seed(config.seed, "census"), name, direction, k)
             for name in graphs}
    shapes = {(sg.node_count, sg.edge_count) for sg in subgraphs.values()}
    joint = len(graphs) > 1 and len(shapes) == 1 and config.ensemble_size >= BATCH_MIN_ENSEMBLE
    nulls: dict[str, np.ndarray] = {}
    results = {}
    for name, sg in subgraphs.items():
        tag = f"{name}_{direction}_{k}"
        stage = f"top-{k} {direction}"
        try:
            report = structural_report(sg)
            bundle.write_json(f"structural_{tag}.json", report.to_dict())
            bundle.write_csv(f"structural_{tag}.csv", report.to_csv())
            table = centrality_table(
                sg,
                damping=config.pagerank_damping,
                tol=config.pagerank_tol,
                max_iter=config.pagerank_max_iter,
            )
            for measure in MEASURES:
                bundle.write_csv(f"centrality_{tag}_{measure}.csv", table.to_csv(measure))
            comps = scc(sg)
            bundle.write_csv(f"scc_{tag}.csv", comps.to_csv())
            dm = distance_matrix(sg)
            bundle.write_csv(f"distance_{tag}.csv", dm.to_csv())
            clusters = filter_singletons(average_linkage(dm, config.n_clusters))
            bundle.write_csv(f"clusters_{tag}.csv", clusters.to_csv())
            bundle.write_csv(f"triads_{tag}.csv", triad_census(sg).to_csv())
            if joint and not nulls:
                nulls = dict(zip(subgraphs, _null_counts(
                    list(subgraphs.values()), config.ensemble_size, list(seeds.values()),
                    config.swaps_per_edge)))
            zscores = motif_zscores(
                sg,
                ensemble_size=config.ensemble_size,
                seed=seeds[name],
                swaps_per_edge=config.swaps_per_edge,
                null=nulls.get(name),
            )
            bundle.write_csv(f"motifs_{tag}.csv", zscores.to_csv())
            share = None
            if k == max(config.k_values):
                stage = f"regional top-{k} {direction}"
                raw = regional_flows(sg, region_map)
                share = to_shares(raw)
                bundle.write_csv(f"regional_{name}_{direction}_raw.csv", raw.to_csv())
                bundle.write_csv(f"regional_{name}_{direction}_share.csv", share.to_csv())
            matrix = feature_matrix(sg, table, comps) if k in averaged_k else None
            results[name] = zscores, matrix, share
        except (TourflowError, ValueError) as exc:
            exc.args = (f"analyze dataset {name}, {stage}: {exc}",)
            raise
    return results


def cmd_analyze(config: RunConfig, graph_a: str | None = None, graph_b: str | None = None) -> int:
    """Run the full analysis bundle over one or two built graphs.

    The bundle is committed only once every analysis has succeeded, so
    a failure leaves ``output_dir`` as it was.
    """
    graphs: dict[str, MobilityGraph] = {}
    for name, override in (("a", graph_a), ("b", graph_b)):
        path = Path(override) if override else Path(config.output_dir) / f"graph_{name}.csv"
        if override and not path.exists():
            raise ConfigError(f"graph file {path} does not exist")
        if not path.exists():
            continue
        _, _, _, label = _dataset_sources(config, name)
        graphs[name] = parse_flow_matrix(path, label=label)
    if not graphs:
        raise ConfigError("no graphs to analyze: run `tourflow build` first or pass --graph-a")
    region_map = RegionMap.from_csv(config.region_map) if config.region_map else RegionMap.default()
    # The averaged distances read a feature matrix for every k of
    # EXPECTED_SUBGRAPHS: all of them or none.
    averaged_k = {k for _, k in EXPECTED_SUBGRAPHS}
    averaged_k = averaged_k if averaged_k <= set(config.k_values) else set()
    # A Top-k unit: one direction and k, over every dataset.  Its cost
    # grows with its subgraphs' arcs, so each lane is dealt units by k.
    units = [(direction, k) for direction in ("out", "in") for k in config.k_values]
    with _Bundle(config, "analyze_manifest.json", {"datasets": sorted(graphs)}) as bundle:
        motifs, shares, features = {}, {}, {name: [] for name in graphs}
        # A forked lane stages its files into the bundle and sends back only its results.
        results = run_lanes(
            lambda i: _topk_unit(config, bundle, region_map, averaged_k, graphs, *units[i]),
            [k for _, k in units], "analyze")
        for (direction, k), unit in zip(units, results):
            for name, (zscores, matrix, share) in unit.items():
                motifs[name, direction, k] = zscores
                if matrix is not None:
                    features[name].append(matrix)
                if share is not None:
                    shares[name, direction] = share
        averaged = {}
        if averaged_k:
            for name in graphs:
                averaged[name] = avg_distance_matrix(features[name])
                bundle.write_csv(f"avgdist_{name}.csv", averaged[name].to_csv())
        summary: dict = {"datasets": sorted(graphs)}
        if len(graphs) == 2:
            for (name, direction, k), scores_a in motifs.items():
                if name == "a":
                    diff = z_percent_diff(scores_a, motifs["b", direction, k])
                    bundle.write_csv(f"zdiff_{direction}_{k}.csv", z_percent_diff_csv(diff))
            share_summaries = {}
            for direction in ("out", "in"):
                share_a, share_b = shares["a", direction], shares["b", direction]
                bundle.write_csv(f"sharediff_{direction}.csv",
                                 share_diff(share_a, share_b).to_csv())
                share_summaries[direction] = mean_abs_share_diff(share_a, share_b)
            summary["mean_abs_share_diff_pct_points"] = share_summaries
            if averaged:
                correlations = country_correlations(averaged["a"], averaged["b"])
                bundle.write_csv("correlations.csv", correlations.to_csv())
                defined = [v for v in correlations.rho.values() if v is not None]
                summary["correlation"] = {
                    "common_countries": correlations.common_count,
                    "defined": len(defined),
                    "mean_rho": sum(defined) / len(defined) if defined else None,
                }
        bundle.write_json("analysis_summary.json", summary)
    print(f"analyzed {len(graphs)} dataset(s) -> {bundle.outdir} ({len(bundle.files)} files)")
    return EXIT_OK


def _number(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise ParseError(f"{what} must be numeric: {exc}") from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value}")
    return value


def _plot_heatmap(rows: list[list[str]], title: str, meta: str) -> str:
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ParseError("heatmap needs a dense matrix CSV with header row and label column")
    col_labels = rows[0][1:]
    row_labels = [row[0] for row in rows[1:]]
    values = [[_number(cell, "heatmap cells") for cell in row[1:]] for row in rows[1:]]
    if any(len(row) != len(col_labels) for row in values):
        raise ParseError("heatmap matrix is ragged")
    return heatmap_svg(values, row_labels, col_labels, title=title, meta=meta)


def _plot_strip(rows: list[list[str]], title: str, meta: str) -> str:
    if not rows or rows[0][:2] != ["country", "rho"]:
        raise ParseError("strip plot expects a correlation CSV (country,rho,flag)")
    if any(len(row) < 2 for row in rows[1:]):
        raise ParseError("strip plot rows need a country and a rho field")
    labels = [row[0] for row in rows[1:]]
    values = [_number(row[1], "strip plot rho") if row[1] else None for row in rows[1:]]
    return strip_svg(labels, values, title=title, meta=meta)


def _plot_bar(rows: list[list[str]], title: str, meta: str) -> str:
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ParseError("bar plot needs a CSV with a label column and a value column")
    header = rows[0]
    column = header.index("z") if "z" in header else (
        header.index("percent_diff") if "percent_diff" in header else 1)
    labels, values = [], []
    for row in rows[1:]:
        if len(row) > column and row[column]:
            labels.append(row[0])
            values.append(_number(row[column], "bar plot values"))
    if not labels:
        raise ParseError("bar plot found no defined values in the report")
    return bar_svg(labels, values, title=title, meta=meta)


def cmd_plot(report: str, kind: str, out: str, config: RunConfig | None = None) -> int:
    """Render a report CSV as a deterministic SVG."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    path = Path(report)
    with read_table(path, "report") as reader:
        rows = [row for _, row in reader]
    meta = " | ".join([*_meta_items(config), f"source: {path.name}"])
    title = path.stem
    if kind == "heatmap":
        svg = _plot_heatmap(rows, title, meta)
    elif kind == "strip":
        svg = _plot_strip(rows, title, meta)
    else:
        svg = _plot_bar(rows, title, meta)
    _write_output(out, svg.encode("utf-8"))
    return EXIT_OK


def _with_meta(data: bytes, fmt: str, comment: str) -> bytes:
    text = data.decode("utf-8")
    if fmt == "csv":
        return (f"# {comment}\n" + text).encode("utf-8")
    if fmt == "dot":
        return (f"// {comment}\n" + text).encode("utf-8")
    first, _, rest = text.partition("\n")
    return (f"{first}\n<!-- {comment} -->\n{rest}").encode("utf-8")


def cmd_export(graph_path: str, fmt: str, out: str, config: RunConfig | None = None) -> int:
    """Re-serialize a built graph CSV as CSV, DOT or GraphML."""
    if fmt not in EXPORT_FORMATS:
        raise ConfigError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    graph = parse_flow_matrix(graph_path, label=Path(graph_path).stem)
    _write_output(out, _with_meta(export_graph(graph, fmt), fmt, " | ".join(_meta_items(config))))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourflow",
        description="Mobility-graph construction and analysis pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"tourflow {__version__}")
    # Every command reads a config the same way; plot and export only
    # stamp its hash and seed into their metadata.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="path to a key=value config file")
    config.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[config], help="ingest sources and write mobility graphs")

    analyze = sub.add_parser(
        "analyze", parents=[config], help="run all analyses over built graphs")
    analyze.add_argument("--graph-a", help="graph CSV for dataset a")
    analyze.add_argument("--graph-b", help="graph CSV for dataset b")

    plot = sub.add_parser("plot", parents=[config], help="render a report CSV as SVG")
    plot.add_argument("--report", required=True, help="report CSV to render")
    plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    plot.add_argument("--out", required=True, help="output SVG path")

    export = sub.add_parser(
        "export", parents=[config], help="convert a graph CSV to CSV/DOT/GraphML")
    export.add_argument("--graph", required=True, help="graph CSV to convert")
    export.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    export.add_argument("--out", required=True, help="output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(load_config(args.config, args.overrides))
        if args.command == "analyze":
            config = load_config(args.config, args.overrides)
            return cmd_analyze(config, graph_a=args.graph_a, graph_b=args.graph_b)
        optional = (
            load_config(args.config, args.overrides)
            if args.config or args.overrides
            else None
        )
        if args.command == "plot":
            return cmd_plot(args.report, args.kind, args.out, config=optional)
        return cmd_export(args.graph, args.format, args.out, config=optional)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, TourflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
