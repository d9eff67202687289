"""Batch command-line pipeline: build, analyze, plot, export.

Configuration lives in a flat ``key = value`` text file; any key can be
overridden on the command line with ``--set key=value`` (flags win).
All randomness derives from the single ``seed`` key, every emitted file
carries a metadata header (tool version, config hash, seed), a command
commits all of its files or none, and repeated runs with the same config
produce byte-identical bundles.

``analyze`` runs its Top-k units (one dataset, direction and k each) in
one lane per CPU of the process's affinity mask: the ``analyze``
process is lane 0, and every other lane is a forked child process.
``taskset`` limits them; there is no setting.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .census import MotifZScores, motif_zscores, triad_census, z_percent_diff, z_percent_diff_csv
from .clustering import average_linkage, distance_matrix, filter_singletons
from .compare import FeatureMatrix, avg_distance_matrix, country_correlations, feature_matrix
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
from .metrics import MEASURES, centrality_table, scc, structural_report
from .plots import bar_svg, heatmap_svg, strip_svg
from .regional import RegionMap, mean_abs_share_diff, regional_flows, share_diff, to_shares
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


def _meta_text(config: RunConfig | None, header: bool = False) -> str:
    """The tool version, config hash and seed (the version alone without a config).

    ``header`` renders one ``# key: value`` line per field, the header of
    every CSV report; otherwise the fields are joined by `` | `` into one
    comment.
    """
    items = [f"tool: tourflow {__version__}"]
    if config is not None:
        items += [f"config: {config_hash(config)}", f"seed: {config.seed}"]
    if header:
        return "".join(f"# {item}\n" for item in items)
    return " | ".join(items)


def _meta_dict(config: RunConfig) -> dict:
    return {"tool": "tourflow", "version": __version__,
            "config": config_hash(config), "seed": config.seed}


def _write_output(out: str, payload: bytes) -> None:
    """Write a single output file (plot or export) via a sibling temp file renamed over it."""
    target = Path(out)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    temp.write_bytes(payload)
    temp.replace(target)
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
    """One command's output files, committed together with their manifest or not at all.

    Used as a context manager.  Entering it takes an exclusive ``flock``
    on the output directory itself, so a second command on the same
    directory fails before it stages anything; forked children share
    the lock.  ``write`` stages each payload at once as ``<name>.tmp``
    in the output directory.  Leaving the block normally renames every
    staged file into place, the manifest last, then deletes the files
    that the previous manifest of the same name listed and the new one
    does not.  Leaving it by an exception unlinks the staged files, so
    the directory holds what it held before.  ``hashes`` maps each
    staged name to its SHA-256; a process that stages files for this
    bundle reports them there.  ``header`` holds the manifest's fields
    before ``files``.
    """

    def __init__(self, outdir: Path, manifest: str, header: dict) -> None:
        self.outdir = outdir
        self.manifest = manifest
        self.header = header
        self.hashes: dict[str, str] = {}

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
        return self

    def _staged(self, name: str) -> Path:
        return self.outdir / (name + ".tmp")

    def write(self, name: str, data: str | bytes) -> None:
        payload = data.encode("utf-8") if isinstance(data, str) else data
        # Recorded first, so that a write that fails half-way is unlinked too.
        self.hashes[name] = hashlib.sha256(payload).hexdigest()
        self._staged(name).write_bytes(payload)

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

    def _commit(self) -> None:
        previous = _listed_files(self.outdir / self.manifest)
        files = dict(sorted(self.hashes.items()))
        self.write(self.manifest, json.dumps({**self.header, "files": files}, indent=2) + "\n")
        for name in self.hashes:
            self._staged(name).replace(self.outdir / name)
        for name in sorted(previous - self.hashes.keys()):
            (self.outdir / name).unlink(missing_ok=True)

    def _discard(self) -> None:
        for name in self.hashes:
            self._staged(name).unlink(missing_ok=True)
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
    header = {"meta": _meta_dict(config), "datasets": dataset_stats}
    with _Bundle(Path(config.output_dir), "build_manifest.json", header) as bundle:
        for name in DATASET_NAMES:
            result = _build_one(config, name)
            if result is None:
                continue
            graph, stats = result
            filename = f"graph_{name}.csv"
            bundle.write(filename, _meta_text(config, header=True)
                         + export_graph(graph, "csv").decode("utf-8"))
            dataset_stats[name] = {**stats, "file": filename}
            print(f"dataset {name}: {graph.node_count} nodes, {graph.edge_count} edges -> "
                  f"{bundle.outdir / filename}")
        if not dataset_stats:
            raise ConfigError("no dataset configured: set dataset_a_checkins or dataset_a_flows")
    return EXIT_OK


def _topk_unit(
    config: RunConfig, bundle: _Bundle, name: str, graph: MobilityGraph, direction: str, k: int
) -> tuple[MotifZScores, FeatureMatrix | None]:
    """Every report of one Top-k subgraph, staged through ``bundle``.

    Returns the subgraph's motif z-scores and, for k in 1..3 (the
    averaged distances' inputs), its feature matrix.
    """
    meta = _meta_text(config, header=True)
    tag = f"{name}_{direction}_{k}"
    try:
        sg = (topk_out if direction == "out" else topk_in)(graph, k)
        report = structural_report(sg)
        bundle.write(f"structural_{tag}.json", report.to_json(meta=_meta_dict(config)))
        bundle.write(f"structural_{tag}.csv", meta + report.to_csv())
        table = centrality_table(
            sg,
            damping=config.pagerank_damping,
            tol=config.pagerank_tol,
            max_iter=config.pagerank_max_iter,
        )
        for measure in MEASURES:
            bundle.write(f"centrality_{tag}_{measure}.csv", meta + table.to_csv(measure))
        comps = scc(sg)
        bundle.write(f"scc_{tag}.csv", meta + comps.to_csv())
        dm = distance_matrix(sg)
        bundle.write(f"distance_{tag}.csv", meta + dm.to_csv())
        clusters = filter_singletons(average_linkage(dm, config.n_clusters))
        bundle.write(f"clusters_{tag}.csv", meta + clusters.to_csv())
        observed = triad_census(sg)
        bundle.write(f"triads_{tag}.csv", meta + observed.to_csv())
        zscores = motif_zscores(
            sg,
            observed=observed,
            ensemble_size=config.ensemble_size,
            seed=derive_seed(derive_seed(config.seed, "census"), name, direction, k),
            swaps_per_edge=config.swaps_per_edge,
        )
        bundle.write(f"motifs_{tag}.csv", meta + zscores.to_csv())
        return zscores, feature_matrix(sg, table, comps) if k <= 3 else None
    except (TourflowError, ValueError) as exc:
        exc.args = (f"analyze dataset {name}, top-{k} {direction}: {exc}",)
        raise


# A Top-k unit: dataset name, its graph, direction and k.
_Unit = tuple[str, MobilityGraph, str, int]


def _deal(units: list[_Unit], lanes: int) -> list[list[int]]:
    """The unit indices of each lane, each lane's in ascending order.

    Longest processing time first: units taken by descending k (a unit's
    cost grows with its subgraph's arcs), ties by index, each to the
    least loaded lane, ties to the lowest lane.
    """
    loads = [0] * lanes
    dealt: list[list[int]] = [[] for _ in range(lanes)]
    for index in sorted(range(len(units)), key=lambda i: (-units[i][3], i)):
        lane = loads.index(min(loads))
        dealt[lane].append(index)
        loads[lane] += units[index][3]
    return [sorted(indices) for indices in dealt]


def _run_lane(
    config: RunConfig, bundle: _Bundle, units: list[_Unit], indices: list[int]
) -> tuple[dict[int, tuple], tuple[int, BaseException] | None]:
    """Run the units at ``indices`` in order, stopping at the first that raises.

    Returns each finished unit's result by index, and the index and
    exception of the unit that raised, or None.
    """
    results = {}
    for index in indices:
        try:
            results[index] = _topk_unit(config, bundle, *units[index])
        except BaseException as exc:  # raised by cmd_analyze once every lane has ended
            return results, (index, exc)
    return results, None


def _child_lane(
    config: RunConfig, bundle: _Bundle, units: list[_Unit], indices: list[int], conn
) -> None:
    """A forked lane: run its units, then send back their results and the files it staged."""
    bundle.hashes = {}
    results, failure = _run_lane(config, bundle, units, indices)
    if failure is not None:
        index, exc = failure
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            failure = index, RuntimeError(f"{type(exc).__name__}: {exc}")
    conn.send((results, failure, bundle.hashes))
    conn.close()


def _run_topk_units(
    config: RunConfig, bundle: _Bundle, units: list[_Unit]
) -> tuple[dict[int, tuple], tuple[int, BaseException] | None]:
    """Run every Top-k unit; return the results by unit index, and the earliest failure.

    This process runs lane 0 of ``_deal`` and a forked child each other
    lane.  A child stages its files into ``bundle``'s directory and
    sends back only its results and staged names, which are merged
    into ``bundle`` before this returns.  The failure, (index,
    exception) or None, is the earliest unit that raised: as each lane
    runs its units in index order and stops at its first failure, every
    unit before it has a result, and a serial run would raise it too.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    lanes = _deal(units, min(cpus, len(units)))
    children = []
    try:
        if len(lanes) > 1:
            import multiprocessing

            # fork: a child inherits the graphs and the bundle instead of
            # being sent them, and its CPU time counts in this process's
            # RUSAGE_CHILDREN.  Process and Pipe start no thread here, and
            # the pipeline starts none, so forking is safe.
            context = multiprocessing.get_context("fork")
            for indices in lanes[1:]:
                reader, writer = context.Pipe(duplex=False)
                child = context.Process(
                    target=_child_lane, args=(config, bundle, units, indices, writer))
                child.start()
                writer.close()
                children.append((child, reader))
        results, failure = _run_lane(config, bundle, units, lanes[0])
        failures = [failure] if failure else []
        for lane, (child, reader) in enumerate(children, start=1):
            try:
                done, failure, staged = reader.recv()
            except EOFError:
                child.join()
                # The files it had staged are unknown; the run fails all the same.
                failure = min(lanes[lane]), RuntimeError(
                    f"analyze lane {lane} exited with code {child.exitcode} before reporting")
                done, staged = {}, {}
            bundle.hashes.update(staged)
            results.update(done)
            failures += [failure] if failure else []
    finally:
        for child, reader in children:
            reader.close()
            child.join()
    return results, min(failures, key=lambda failure: failure[0], default=None)


def _analyze_dataset(
    config: RunConfig, bundle: _Bundle, name: str, graph: MobilityGraph, region_map: RegionMap,
    topk: dict[tuple[str, int], tuple[MotifZScores, FeatureMatrix | None]],
) -> dict:
    """A dataset's regional units and averaged distances; returns what the compare stage needs.

    ``topk`` holds the results of its Top-k units by (direction, k), out
    before in, k ascending.
    """
    meta = _meta_text(config, header=True)
    top_k = max(config.k_values)
    shares = {}
    for direction in ("out", "in"):
        extract = topk_out if direction == "out" else topk_in
        try:
            raw = regional_flows(extract(graph, top_k), region_map)
            share = to_shares(raw)
        except (TourflowError, ValueError) as exc:
            exc.args = (f"analyze dataset {name}, regional top-{top_k} {direction}: {exc}",)
            raise
        bundle.write(f"regional_{name}_{direction}_raw.csv", meta + raw.to_csv())
        bundle.write(f"regional_{name}_{direction}_share.csv", meta + share.to_csv())
        shares[direction] = share
    averaged = None
    if {1, 2, 3} <= set(config.k_values):
        averaged = avg_distance_matrix([features for _, features in topk.values() if features])
        bundle.write(f"avgdist_{name}.csv", meta + averaged.to_csv())
    motifs = {unit: zscores for unit, (zscores, _) in topk.items()}
    return {"motifs": motifs, "shares": shares, "averaged": averaged}


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
    meta = _meta_text(config, header=True)
    header = {"meta": _meta_dict(config), "datasets": sorted(graphs)}
    units = [(name, graph, direction, k) for name, graph in graphs.items()
             for direction in ("out", "in") for k in config.k_values]
    with _Bundle(Path(config.output_dir), "analyze_manifest.json", header) as bundle:
        topk, failure = _run_topk_units(config, bundle, units)
        results = {}
        for name, graph in graphs.items():
            # A serial run fails at a dataset's first failed Top-k unit,
            # before its regional units and before the next dataset.
            if failure is not None and units[failure[0]][0] == name:
                raise failure[1]
            mine = {(direction, k): topk[index]
                    for index, (owner, _, direction, k) in enumerate(units) if owner == name}
            results[name] = _analyze_dataset(config, bundle, name, graph, region_map, mine)
        summary: dict = {"datasets": sorted(graphs)}
        if len(graphs) == 2:
            first, second = results["a"], results["b"]
            for (direction, k), scores_a in first["motifs"].items():
                diff = z_percent_diff(scores_a, second["motifs"][(direction, k)])
                bundle.write(f"zdiff_{direction}_{k}.csv", meta + z_percent_diff_csv(diff))
            share_summaries = {}
            for direction in ("out", "in"):
                share_a = first["shares"][direction]
                share_b = second["shares"][direction]
                bundle.write(f"sharediff_{direction}.csv",
                             meta + share_diff(share_a, share_b).to_csv())
                share_summaries[direction] = mean_abs_share_diff(share_a, share_b)
            summary["mean_abs_share_diff_pct_points"] = share_summaries
            if first["averaged"] is not None and second["averaged"] is not None:
                correlations = country_correlations(first["averaged"], second["averaged"])
                bundle.write("correlations.csv", meta + correlations.to_csv())
                defined = [v for v in correlations.rho.values() if v is not None]
                summary["correlation"] = {
                    "common_countries": correlations.common_count,
                    "defined": len(defined),
                    "mean_rho": sum(defined) / len(defined) if defined else None,
                }
        bundle.write("analysis_summary.json",
                     json.dumps({"meta": _meta_dict(config), **summary}, indent=2) + "\n")
    print(f"analyzed {len(graphs)} dataset(s) -> {bundle.outdir} "
          f"({len(bundle.hashes)} files)")
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
    try:
        column = header.index("z") if "z" in header else (
            header.index("percent_diff") if "percent_diff" in header else 1)
    except ValueError:  # pragma: no cover - guarded above
        column = 1
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
        rows = list(reader)
    meta = _meta_text(config) + f" | source: {path.name}"
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
    _write_output(out, _with_meta(export_graph(graph, fmt), fmt, _meta_text(config)))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourflow",
        description="Mobility-graph construction and analysis pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"tourflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="ingest sources and write mobility graphs")
    build.add_argument("--config", help="path to a key=value config file")
    build.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")

    analyze = sub.add_parser("analyze", help="run all analyses over built graphs")
    analyze.add_argument("--config", help="path to a key=value config file")
    analyze.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="override a config key (repeatable)")
    analyze.add_argument("--graph-a", help="graph CSV for dataset a")
    analyze.add_argument("--graph-b", help="graph CSV for dataset b")

    plot = sub.add_parser("plot", help="render a report CSV as SVG")
    plot.add_argument("--report", required=True, help="report CSV to render")
    plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.add_argument("--config", help="optional config (stamps hash/seed into metadata)")
    plot.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE")

    export = sub.add_parser("export", help="convert a graph CSV to CSV/DOT/GraphML")
    export.add_argument("--graph", required=True, help="graph CSV to convert")
    export.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    export.add_argument("--out", required=True, help="output path")
    export.add_argument("--config", help="optional config (stamps hash/seed into metadata)")
    export.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
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
