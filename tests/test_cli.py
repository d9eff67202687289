"""End-to-end CLI behaviour: config, build, analyze, plot, export."""

from __future__ import annotations

import fcntl
import hashlib
import json
import multiprocessing
import os
import resource
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tourflow import (
    ConfigError,
    census,
    cli,
    distance_matrix,
    parse_flow_matrix,
    structural_report,
    topk_out,
    triad_census,
)
from tourflow.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNEXPECTED,
    RunConfig,
    cmd_export,
    cmd_plot,
    config_hash,
    load_config,
    main,
)
from tourflow.seeds import derive_seed

from oracles import random_digraph

FAST = [
    "--set", "ensemble_size=4",
    "--set", "swaps_per_edge=2",
    "--set", "n_clusters=3",
]


def write_flow_csv(path: Path, edges: dict[tuple[str, str], int]) -> None:
    lines = ["origin,destination,count"]
    lines += [f"{o},{d},{w}" for (o, d), w in sorted(edges.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_edges(seed: int = 0) -> dict[tuple[str, str], int]:
    return dict(random_digraph(np.random.default_rng(seed), 8, 0.6).edges)


def write_region_map(tmp_path: Path, codes: set[str]) -> Path:
    path = tmp_path / "regions.csv"
    rows = ["country,region"]
    rows += [f"{code},{'East' if i % 2 else 'West'}"
             for i, code in enumerate(sorted(codes))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def run_build_analyze(tmp_path: Path, edges: dict[tuple[str, str], int],
                      extra: list[str] | None = None) -> Path:
    flows = tmp_path / "flows.csv"
    write_flow_csv(flows, edges)
    regions = write_region_map(tmp_path, {c for pair in edges for c in pair})
    out = tmp_path / "out"
    base = [
        "--set", f"dataset_a_flows={flows}",
        "--set", f"output_dir={out}",
        "--set", f"region_map={regions}",
        *FAST,
        *(extra or []),
    ]
    assert main(["build", *base]) == EXIT_OK
    assert main(["analyze", *base]) == EXIT_OK
    return out


class TestConfig:
    def test_defaults(self) -> None:
        config = load_config(None)
        assert config == RunConfig()
        assert config.k_values == (1, 2, 3)
        assert config.checkin_threshold == 1000

    def test_file_then_overrides(self, tmp_path: Path) -> None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nn_clusters=4\n# comment\n\nk_values=2,1\n")
        config = load_config(cfg, ["seed=9"])
        assert config.seed == 9
        assert config.n_clusters == 4
        assert config.k_values == (1, 2)

    def test_unknown_key_rejected(self) -> None:
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, ["bogus=1"])

    def test_bad_value_rejected(self) -> None:
        with pytest.raises(ConfigError, match="bad value"):
            load_config(None, ["seed=many"])
        with pytest.raises(ConfigError, match="bad value"):
            load_config(None, ["k_values=0"])

    def test_missing_file_rejected(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_non_utf8_file_rejected(self, tmp_path: Path, capsys) -> None:
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=1\noutput_dir=\xff\n")
        assert main(["build", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: cannot read config file {cfg}" in capsys.readouterr().err

    def test_every_key_parses_to_its_default_type(self) -> None:
        text = {bool: "no", int: "7", float: "0.5", tuple: "3,1", str: " x "}
        defaults = RunConfig()
        keys = [f.name for f in fields(RunConfig)]
        config = load_config(None, [f"{key}={text[type(getattr(defaults, key))]}" for key in keys])
        for key in keys:
            assert type(getattr(config, key)) is type(getattr(defaults, key)), key
            assert getattr(config, key) != getattr(defaults, key), key

    def test_hash_tracks_content(self) -> None:
        a = load_config(None)
        b = load_config(None, ["seed=1"])
        assert config_hash(a) == config_hash(load_config(None))
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 16


class TestBuild:
    def test_flow_matrix_round_trip(self, tmp_path: Path) -> None:
        edges = sample_edges()
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, edges)
        out = tmp_path / "out"
        code = main(["build", "--set", f"dataset_a_flows={flows}",
                     "--set", f"output_dir={out}"])
        assert code == EXIT_OK
        rebuilt = parse_flow_matrix(out / "graph_a.csv")
        assert rebuilt.edges == edges

    def test_checkin_pipeline(self, tmp_path: Path) -> None:
        rows = ["user_id,country,timestamp"]
        for user in range(30):
            home = "US" if user % 2 == 0 else "FR"
            rows += [f"u{user},{home},{t}" for t in range(3)]
            rows.append(f"u{user},{'DE' if user % 3 == 0 else 'FR'},99")
        checkins = tmp_path / "checkins.csv"
        checkins.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["build", "--set", f"dataset_a_checkins={checkins}",
                     "--set", "checkin_threshold=5",
                     "--set", f"output_dir={out}"])
        assert code == EXIT_OK
        manifest = json.loads((out / "build_manifest.json").read_text())
        stats = manifest["datasets"]["a"]
        assert stats["kind"] == "checkins"
        assert stats["users"] == 30
        assert stats["threshold"] == 5

    def test_both_sources_rejected(self, tmp_path: Path, capsys) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        code = main(["build", "--set", f"dataset_a_flows={flows}",
                     "--set", f"dataset_a_checkins={flows}"])
        assert code == EXIT_CONFIG
        assert "exactly one" in capsys.readouterr().err

    def test_no_dataset_rejected(self, capsys) -> None:
        assert main(["build"]) == EXIT_CONFIG
        assert "no dataset configured" in capsys.readouterr().err

    def test_manifest_hashes_match_files(self, tmp_path: Path) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        out = tmp_path / "out"
        main(["build", "--set", f"dataset_a_flows={flows}",
              "--set", f"output_dir={out}"])
        manifest = json.loads((out / "build_manifest.json").read_text())
        for name, digest in manifest["files"].items():
            payload = (out / name).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == digest

    def test_meta_header_on_outputs(self, tmp_path: Path) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        out = tmp_path / "out"
        main(["build", "--set", f"dataset_a_flows={flows}",
              "--set", f"output_dir={out}"])
        head = (out / "graph_a.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# tool: tourflow ")
        assert head[1].startswith("# config: ")
        assert head[2].startswith("# seed: ")


class TestAnalyze:
    def test_single_dataset_outputs(self, tmp_path: Path) -> None:
        out = run_build_analyze(tmp_path, sample_edges())
        for direction in ("out", "in"):
            for k in (1, 2, 3):
                tag = f"a_{direction}_{k}"
                for stem in ("structural", "scc", "distance", "clusters",
                             "triads", "motifs"):
                    assert (out / f"{stem}_{tag}.csv").exists()
                assert (out / f"structural_{tag}.json").exists()
            assert (out / f"regional_a_{direction}_raw.csv").exists()
        assert (out / "avgdist_a.csv").exists()
        assert not (out / "correlations.csv").exists()
        assert not list(out.glob("zdiff_*"))

    def test_each_observed_census_is_counted_once(
        self, tmp_path: Path, monkeypatch, one_cpu
    ) -> None:
        # Counted in this process, so every unit runs here.
        calls = []

        def counted(graph):
            calls.append(graph)
            return triad_census(graph)

        monkeypatch.setattr(cli, "triad_census", counted)
        monkeypatch.setattr(census, "triad_census", lambda graph: pytest.fail("census recounted"))
        run_build_analyze(tmp_path, sample_edges())
        assert len(calls) == 6

    def test_outputs_match_direct_module_calls(self, tmp_path: Path) -> None:
        edges = sample_edges()
        out = run_build_analyze(tmp_path, edges)
        g = parse_flow_matrix(out / "graph_a.csv")
        sg = topk_out(g, 2)
        written = (out / "distance_a_out_2.csv").read_text()
        body = "".join(
            line + "\n" for line in written.splitlines() if not line.startswith("#"))
        assert body == distance_matrix(sg).to_csv()
        report = json.loads((out / "structural_a_out_2.json").read_text())
        expected = structural_report(sg)
        assert report["edge_count"] == expected.edge_count
        assert report["density"] == pytest.approx(expected.density)

    def test_identical_datasets_correlate_perfectly(self, tmp_path: Path) -> None:
        edges = sample_edges()
        flows_a = tmp_path / "a.csv"
        flows_b = tmp_path / "b.csv"
        write_flow_csv(flows_a, edges)
        write_flow_csv(flows_b, edges)
        regions = write_region_map(tmp_path, {c for pair in edges for c in pair})
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows_a}",
                "--set", f"dataset_b_flows={flows_b}",
                "--set", f"output_dir={out}",
                "--set", f"region_map={regions}", *FAST]
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        rows = [line.split(",") for line in
                (out / "correlations.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert rows, "no correlation rows written"
        for _, rho, flag in rows:
            assert flag == ""
            assert float(rho) == pytest.approx(1.0, abs=1e-6)
        summary = json.loads((out / "analysis_summary.json").read_text())
        assert summary["correlation"]["common_countries"] == 8
        for direction in ("out", "in"):
            assert summary["mean_abs_share_diff_pct_points"][direction][
                "all_cells"] == pytest.approx(0.0, abs=1e-12)
        assert (out / "zdiff_out_1.csv").exists()
        assert (out / "sharediff_in.csv").exists()

    def test_explicit_missing_graph_rejected(self, tmp_path: Path, capsys) -> None:
        code = main(["analyze", "--graph-a", str(tmp_path / "nope.csv")])
        assert code == EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err

    def test_no_graphs_rejected(self, tmp_path: Path, capsys) -> None:
        code = main(["analyze", "--set", f"output_dir={tmp_path / 'empty'}"])
        assert code == EXIT_CONFIG
        assert "no graphs" in capsys.readouterr().err


class TestPlot:
    def test_heatmap_cell_count(self, tmp_path: Path) -> None:
        out = run_build_analyze(tmp_path, sample_edges())
        target = tmp_path / "dist.svg"
        code = main(["plot", "--report", str(out / "distance_a_out_2.csv"),
                     "--kind", "heatmap", "--out", str(target)])
        assert code == EXIT_OK
        assert target.read_text().count('class="cell"') == 64

    def test_strip_marks_defined_rows_only(self, tmp_path: Path) -> None:
        report = tmp_path / "correlations.csv"
        report.write_text(
            "country,rho,flag\nAA,0.9,\nAB,,undefined\nAC,-0.2,\n", encoding="utf-8")
        target = tmp_path / "rho.svg"
        assert cmd_plot(str(report), "strip", str(target)) == EXIT_OK
        assert target.read_text().count('class="mark"') == 2

    def test_bar_uses_z_column(self, tmp_path: Path) -> None:
        report = tmp_path / "motifs.csv"
        report.write_text(
            "class,real,mean,std,z,flag\n030T,9,4,1,5,relevant\n030C,1,1,0,,undefined\n",
            encoding="utf-8")
        target = tmp_path / "z.svg"
        assert cmd_plot(str(report), "bar", str(target)) == EXIT_OK
        assert target.read_text().count('class="bar"') == 1

    def test_rerender_is_byte_identical(self, tmp_path: Path) -> None:
        report = tmp_path / "correlations.csv"
        report.write_text("country,rho,flag\nAA,0.5,\nAB,0.25,\n", encoding="utf-8")
        first = tmp_path / "one.svg"
        second = tmp_path / "two.svg"
        cmd_plot(str(report), "strip", str(first))
        cmd_plot(str(report), "strip", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_missing_report_is_parse_error(self, tmp_path: Path, capsys) -> None:
        code = main(["plot", "--report", str(tmp_path / "nope.csv"),
                     "--kind", "strip", "--out", str(tmp_path / "x.svg")])
        assert code == EXIT_PARSE
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, text", [
        pytest.param("strip", "metric,value\ndensity,0.5\n", id="strip-header"),
        pytest.param("strip", "country,rho,flag\nAA,abc,\n", id="strip-value"),
        pytest.param("strip", "country,rho,flag\nAA\n", id="strip-short-row"),
        pytest.param("bar", "class,count\n030T,xyz\n", id="bar-value"),
        pytest.param("heatmap", "country,AA,AB\nAA,0,nan\nAB,1,0\n", id="heatmap-nan"),
        pytest.param("strip", "country,rho,flag\nAA,inf,\nAB,0.5,\n", id="strip-inf"),
        pytest.param("bar", "class,real,mean,std,z,flag\n030T,9,4,1,-inf,\n", id="bar-inf"),
        pytest.param("bar", "class,real,mean,std,z,flag\n030T,9,4,1,NaN,\n", id="bar-nan"),
    ])
    def test_wrong_shape_is_parse_error(self, tmp_path: Path, kind: str, text: str) -> None:
        report = tmp_path / "bad.csv"
        report.write_text(text, encoding="utf-8")
        code = main(["plot", "--report", str(report), "--kind", kind,
                     "--out", str(tmp_path / "x.svg")])
        assert code == EXIT_PARSE
        assert not (tmp_path / "x.svg").exists()

    def test_non_utf8_report_is_parse_error(self, tmp_path: Path, capsys) -> None:
        report = tmp_path / "correlations.csv"
        report.write_bytes(b"country,rho,flag\nAA,0.5,\xff\n")
        code = main(["plot", "--report", str(report), "--kind", "strip",
                     "--out", str(tmp_path / "x.svg")])
        assert code == EXIT_PARSE
        assert "not valid UTF-8" in capsys.readouterr().err


class TestExport:
    def build_graph(self, tmp_path: Path) -> Path:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        out = tmp_path / "out"
        main(["build", "--set", f"dataset_a_flows={flows}",
              "--set", f"output_dir={out}"])
        return out / "graph_a.csv"

    def test_dot_output(self, tmp_path: Path) -> None:
        graph = self.build_graph(tmp_path)
        target = tmp_path / "graph.dot"
        code = main(["export", "--graph", str(graph), "--format", "dot",
                     "--out", str(target)])
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert lines[0].startswith("// tool: tourflow ")
        assert lines[1].startswith("digraph ")

    def test_graphml_output_keeps_xml_declaration_first(self, tmp_path: Path) -> None:
        graph = self.build_graph(tmp_path)
        target = tmp_path / "graph.graphml"
        main(["export", "--graph", str(graph), "--format", "graphml",
              "--out", str(target)])
        lines = target.read_text().splitlines()
        assert lines[0].startswith("<?xml")
        assert lines[1].startswith("<!-- tool: tourflow ")

    def test_csv_round_trip(self, tmp_path: Path) -> None:
        graph = self.build_graph(tmp_path)
        target = tmp_path / "copy.csv"
        main(["export", "--graph", str(graph), "--format", "csv",
              "--out", str(target)])
        assert parse_flow_matrix(target).edges == parse_flow_matrix(graph).edges

    def test_unknown_format_rejected(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="unknown export format"):
            cmd_export(str(tmp_path / "g.csv"), "yaml", str(tmp_path / "g.yaml"))


CYCLE3 = {("AA", "AB"): 3, ("AB", "AC"): 2, ("AC", "AA"): 1}


class TestExitCodes:
    def test_domain_error_for_tiny_graph(self, tmp_path: Path, capsys) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, {("AA", "AB"): 1, ("AB", "AA"): 1})
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows}",
                "--set", f"output_dir={out}", *FAST]
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_DOMAIN
        assert "analyze dataset a" in capsys.readouterr().err

    def test_convergence_error_exit_code(self, tmp_path: Path, capsys) -> None:
        flows = tmp_path / "flows.csv"
        edges = sample_edges()
        write_flow_csv(flows, edges)
        regions = write_region_map(tmp_path, {c for pair in edges for c in pair})
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows}",
                "--set", f"output_dir={out}",
                "--set", f"region_map={regions}",
                "--set", "pagerank_max_iter=1",
                "--set", "pagerank_tol=1e-15", *FAST]
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_CONVERGENCE
        assert "convergence error" in capsys.readouterr().err

    def test_parse_error_for_malformed_flows(self, tmp_path: Path, capsys) -> None:
        flows = tmp_path / "flows.csv"
        flows.write_text("origin,destination,count\nAA,AA,5\n", encoding="utf-8")
        code = main(["build", "--set", f"dataset_a_flows={flows}"])
        assert code == EXIT_PARSE
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["flows", "checkins"])
    def test_non_utf8_input_is_parse_error(self, tmp_path: Path, kind: str, capsys) -> None:
        source = tmp_path / "input.csv"
        header = b"origin,destination,count" if kind == "flows" else b"user_id,country,timestamp"
        row = b"AA,AB,1\xff" if kind == "flows" else b"u1,US,1\xff"
        source.write_bytes(header + b"\n" + row + b"\n")
        code = main(["build", "--set", f"dataset_a_{kind}={source}",
                     "--set", "strict=false", "--set", f"output_dir={tmp_path / 'out'}"])
        assert code == EXIT_PARSE
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_region_map_writes_nothing(self, tmp_path: Path, capsys) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        regions = tmp_path / "regions.csv"
        regions.write_bytes(b"country,region\nAA,West\xff\n")
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows}", "--set", f"output_dir={out}", *FAST]
        assert main(["build", *base]) == EXIT_OK
        built = sorted(out.iterdir())
        assert main(["analyze", *base, "--set", f"region_map={regions}"]) == EXIT_PARSE
        assert "not valid UTF-8" in capsys.readouterr().err
        assert sorted(out.iterdir()) == built

    @pytest.mark.parametrize("kind", ["checkins", "flows", "region_map"])
    def test_missing_input_writes_nothing(self, tmp_path: Path, kind: str, capsys) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        missing = tmp_path / "missing.csv"
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows}", "--set", f"output_dir={out}", *FAST]
        if kind == "region_map":
            assert main(["build", *base]) == EXIT_OK
            built = sorted(out.iterdir())
            code = main(["analyze", *base, "--set", f"region_map={missing}"])
        else:
            built = None
            code = main(["build", *base, "--set", f"dataset_b_{kind}={missing}"])
        assert code == EXIT_PARSE
        assert f"cannot read {missing}" in capsys.readouterr().err
        assert (sorted(out.iterdir()) if out.exists() else None) == built

    def test_checkins_all_under_threshold_write_nothing(self, tmp_path: Path, capsys) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, sample_edges())
        checkins = tmp_path / "checkins.csv"
        rows = ["user_id,country,timestamp"] + [f"u{i},US,{i}" for i in range(5)]
        checkins.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["build", "--set", f"dataset_a_flows={flows}",
                     "--set", f"dataset_b_checkins={checkins}",
                     "--set", "checkin_threshold=5", "--set", f"output_dir={out}"])
        assert code == EXIT_DOMAIN
        assert "checkin_threshold=5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edges, overrides, message", [
        # Three nodes under the default n_clusters of 10.
        (CYCLE3, [], "n_clusters must lie in [1, 3], got 10"),
        (CYCLE3, ["--set", "n_clusters=3", "--set", "ensemble_size=1"],
         "ensemble_size must be >= 2"),
        # Both arcs end in AC, so Top-1 In keeps one.
        ({("AA", "AC"): 3, ("AB", "AC"): 2}, ["--set", "n_clusters=2"],
         "top-1 in: rewiring needs >= 2 edges, got 1"),
        # PageRank settings, checked before the structural reports are written.
        (CYCLE3, ["--set", "n_clusters=3", "--set", "pagerank_damping=1.5"],
         "pagerank damping must lie in (0, 1), got 1.5"),
        (CYCLE3, ["--set", "n_clusters=3", "--set", "pagerank_max_iter=0"],
         "pagerank max_iter must be >= 1, got 0"),
        (CYCLE3, ["--set", "n_clusters=3", "--set", "pagerank_tol=0"],
         "pagerank tol must be > 0, got 0.0"),
        # The default region map has none of these codes.
        (CYCLE3, ["--set", "n_clusters=3"], "countries missing from the region map: AA, AB, AC"),
    ])
    def test_unanalyzable_graph_writes_nothing(
        self, tmp_path: Path, edges: dict, overrides: list[str], message: str, capsys
    ) -> None:
        flows = tmp_path / "flows.csv"
        write_flow_csv(flows, edges)
        out = tmp_path / "out"
        base = ["--set", f"dataset_a_flows={flows}", "--set", f"output_dir={out}",
                "--set", "swaps_per_edge=2", *overrides]
        assert main(["build", *base]) == EXIT_OK
        built = sorted(out.iterdir())
        assert main(["analyze", *base]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "analyze dataset a" in err and message in err
        assert sorted(out.iterdir()) == built


def bundle_args(tmp_path: Path, datasets: str = "a") -> list[str]:
    """Flags for flow datasets of one sample graph, a region map covering it and FAST settings."""
    edges = sample_edges()
    args = []
    for name in datasets:
        flows = tmp_path / f"flows_{name}.csv"
        write_flow_csv(flows, edges)
        args += ["--set", f"dataset_{name}_flows={flows}"]
    regions = write_region_map(tmp_path, {c for pair in edges for c in pair})
    return [*args, "--set", f"output_dir={tmp_path / 'out'}",
            "--set", f"region_map={regions}", *FAST]


def snapshot(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def listed(out: Path) -> set[str]:
    """Both manifests and every file they list."""
    names = {"build_manifest.json", "analyze_manifest.json"}
    for manifest in sorted(names):
        names |= set(json.loads((out / manifest).read_text())["files"])
    return names


class TestBundleCommit:
    """A bundle is committed whole or not at all, and replaces the previous one."""

    def test_fewer_k_values_leave_no_stale_file(self, tmp_path: Path) -> None:
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        assert (out / "avgdist_a.csv").exists()
        assert main(["analyze", *base, "--set", "k_values=1"]) == EXIT_OK
        assert set(snapshot(out)) == listed(out)
        assert not (out / "avgdist_a.csv").exists()

    def test_dropped_dataset_is_not_analyzed(self, tmp_path: Path) -> None:
        both = bundle_args(tmp_path, "ab")
        out = tmp_path / "out"
        assert main(["build", *both]) == EXIT_OK
        assert main(["analyze", *both]) == EXIT_OK
        only_a = bundle_args(tmp_path, "a")
        assert main(["build", *only_a]) == EXIT_OK
        assert not (out / "graph_b.csv").exists()
        assert main(["analyze", *only_a]) == EXIT_OK
        assert json.loads((out / "analysis_summary.json").read_text())["datasets"] == ["a"]
        assert set(snapshot(out)) == listed(out)

    def test_files_no_manifest_lists_survive(self, tmp_path: Path) -> None:
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        foreign = {"network.svg": b"<svg/>\n", "network.dot": b"digraph {}\n",
                   "notes.txt": b"mine\n"}
        for name, data in foreign.items():
            (out / name).write_bytes(data)
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        # A manifest edited to list a file outside the bundle directory.
        outside = tmp_path / "outside.csv"
        outside.write_text("keep\n")
        manifest_path = out / "analyze_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["../outside.csv"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base, "--set", "k_values=1"]) == EXIT_OK
        assert outside.read_text() == "keep\n"
        files = snapshot(out)
        assert {name: files[name] for name in foreign} == foreign
        assert set(files) == listed(out) | set(foreign)

    def test_convergence_failure_leaves_output_dir_unchanged(self, tmp_path: Path) -> None:
        base = [*bundle_args(tmp_path),
                "--set", "pagerank_max_iter=1", "--set", "pagerank_tol=1e-15"]
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        before = snapshot(out)
        assert main(["analyze", *base]) == EXIT_CONVERGENCE
        assert snapshot(out) == before

    def test_failed_last_stage_keeps_earlier_bundle(
        self, tmp_path: Path, monkeypatch, capsys
    ) -> None:
        base = bundle_args(tmp_path, "ab")
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        before = snapshot(out)

        def broken(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(cli, "country_correlations", broken)
        assert main(["analyze", *base, "--set", "seed=1"]) == EXIT_DOMAIN
        assert "injected failure" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_diverged_rewiring_keeps_earlier_bundle(
        self, tmp_path: Path, monkeypatch, one_cpu
    ) -> None:
        # Seeds are recorded in this process, so every unit runs here; see
        # TestLanes for a divergence in a forked lane.
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        before = snapshot(out)
        rewire = census.rewire
        seeds = []

        def diverging(graph, seed, swaps):
            # The third ensemble's cross-check sample comes out of another seed.
            seeds.append(seed)
            return rewire(graph, seed + (len(seeds) == 3), swaps)

        monkeypatch.setattr(census, "rewire", diverging)
        with pytest.raises(RuntimeError, match="diverged"):
            main(["analyze", *base, "--set", f"ensemble_size={census.BATCH_MIN_ENSEMBLE}"])
        assert len(seeds) == 3
        assert snapshot(out) == before

    def test_failed_build_keeps_earlier_bundle(self, tmp_path: Path) -> None:
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        before = snapshot(out)
        missing = tmp_path / "missing.csv"
        assert main(["build", *base, "--set", "seed=1",
                     "--set", f"dataset_b_flows={missing}"]) == EXIT_PARSE
        assert snapshot(out) == before

    @pytest.mark.parametrize("command", ["build", "analyze"])
    def test_output_dir_in_use_is_left_alone(self, tmp_path: Path, command: str, capsys) -> None:
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        before = snapshot(out)
        lock = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main([command, *base, "--set", "seed=1"]) == EXIT_UNEXPECTED
        finally:
            os.close(lock)
        assert f"output_dir {out} is in use by another tourflow run" in capsys.readouterr().err
        assert snapshot(out) == before
        assert main([command, *base, "--set", "seed=1"]) == EXIT_OK


def unit_seed(name: str, direction: str, k: int) -> int:
    """The seed analyze's rewire cross-check draws sample 0 of a unit's ensemble with (seed 0)."""
    return derive_seed(derive_seed(derive_seed(0, "census"), name, direction, k), 0)


class TestLanes:
    """Analyze runs its Top-k units in one lane per CPU, itself being lane 0.

    With k = 1..3, lane 0 runs every Out unit and the forked lane every
    In unit, of each dataset.
    """

    @pytest.mark.parametrize("datasets", ["a", "ab"])
    def test_lanes_give_the_one_cpu_bundle(
        self, tmp_path: Path, datasets: str, two_cpus: list, monkeypatch
    ) -> None:
        base = bundle_args(tmp_path, datasets)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        assert len(two_cpus) == 1
        assert multiprocessing.active_children() == []
        lanes = snapshot(out)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["analyze", *base]) == EXIT_OK
        assert len(two_cpus) == 1  # one CPU forks nothing
        assert snapshot(out) == lanes

    def test_deal_balances_the_lanes(self) -> None:
        for datasets, k_values, load in (("ab", range(1, 11), 110), ("ab", (1, 2, 3), 12),
                                         ("a", (1, 2, 3), 6)):
            units = [(name, None, direction, k) for name in datasets
                     for direction in ("out", "in") for k in k_values]
            lanes = cli._deal(units, 2)
            assert sorted(lanes[0] + lanes[1]) == list(range(len(units)))
            assert [sum(units[i][3] for i in lane) for lane in lanes] == [load, load]
            assert [len(lane) for lane in lanes] == [len(units) // 2] * 2
        assert cli._deal(units, 1) == [list(range(len(units)))]

    @pytest.mark.parametrize("datasets, failing, message", [
        ("a", {("a", "in", 2)}, "dataset a, top-2 in"),
        # Both lanes fail; the earlier unit's message wins, in either lane.
        ("a", {("a", "out", 3), ("a", "in", 1)}, "dataset a, top-3 out"),
        ("ab", {("b", "out", 1), ("a", "in", 1)}, "dataset a, top-1 in"),
        ("ab", {("a", "out", 3), ("b", "in", 1)}, "dataset a, top-3 out"),
        # Dataset a's regional units run before any unit of b fails.
        ("ab", {("a", "regional", 3), ("b", "in", 1)}, "dataset a, regional top-3 out"),
    ])
    def test_failed_unit_gives_the_serial_message(
        self, tmp_path: Path, monkeypatch, capsys, two_cpus: list,
        datasets: str, failing: set, message: str
    ) -> None:
        base = bundle_args(tmp_path, datasets)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        before = snapshot(out)
        scc, regional_flows = cli.scc, cli.regional_flows

        def broken(graph):
            if (graph.label, graph.direction, graph.k) in failing:
                raise ValueError("injected failure")
            return scc(graph)

        def broken_regional(graph, region_map):
            if (graph.label, "regional", graph.k) in failing:
                raise ValueError("injected failure")
            return regional_flows(graph, region_map)

        monkeypatch.setattr(cli, "scc", broken)
        monkeypatch.setattr(cli, "regional_flows", broken_regional)
        errors = []
        for mask in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask)
            capsys.readouterr()
            assert main(["analyze", *base, "--set", "seed=1"]) == EXIT_DOMAIN
            errors.append(capsys.readouterr().err)
            assert snapshot(out) == before
            assert not list(out.glob("*.tmp"))
            assert multiprocessing.active_children() == []
        assert len(two_cpus) == 2  # one lane forked by each two-CPU analyze
        assert errors[0] == errors[1] == f"error: analyze {message}: injected failure\n"

    def test_divergence_in_a_child_lane_is_caught(
        self, tmp_path: Path, monkeypatch, two_cpus: list
    ) -> None:
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        assert main(["analyze", *base]) == EXIT_OK
        before = snapshot(out)
        rewire = census.rewire
        bad = unit_seed("a", "in", 2)

        def diverging(graph, seed, swaps):
            return rewire(graph, seed + (seed == bad), swaps)

        monkeypatch.setattr(census, "rewire", diverging)
        forked = len(two_cpus)
        with pytest.raises(RuntimeError, match="diverged"):
            main(["analyze", *base, "--set", f"ensemble_size={census.BATCH_MIN_ENSEMBLE}"])
        assert len(two_cpus) == forked + 1
        assert snapshot(out) == before
        assert not list(out.glob("*.tmp"))
        assert multiprocessing.active_children() == []

    def test_exception_that_does_not_pickle_still_fails_the_run(
        self, tmp_path: Path, monkeypatch, two_cpus: list
    ) -> None:
        class Unpicklable(Exception):
            pass  # local, so pickle cannot find its class by name

        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        before = snapshot(out)
        scc = cli.scc

        def broken(graph):
            if graph.direction == "in":
                raise Unpicklable("lost in transit")
            return scc(graph)

        monkeypatch.setattr(cli, "scc", broken)
        with pytest.raises(RuntimeError, match="Unpicklable: lost in transit"):
            main(["analyze", *base])
        assert snapshot(out) == before
        assert multiprocessing.active_children() == []

    def test_lane_that_dies_fails_the_run(
        self, tmp_path: Path, monkeypatch, two_cpus: list
    ) -> None:
        base = bundle_args(tmp_path)
        out = tmp_path / "out"
        assert main(["build", *base]) == EXIT_OK
        before = snapshot(out)
        scc = cli.scc

        def dying(graph):
            if graph.direction == "in":
                os._exit(3)
            return scc(graph)

        monkeypatch.setattr(cli, "scc", dying)
        with pytest.raises(RuntimeError, match="analyze lane 1 exited with code 3 before reporting"):
            main(["analyze", *base])
        # What the lane staged before it died is unknown, so its *.tmp files stay.
        assert {name: data for name, data in snapshot(out).items()
                if not name.endswith(".tmp")} == before
        assert multiprocessing.active_children() == []

    def test_lane_cpu_time_counts_in_the_caller(self, tmp_path: Path, two_cpus: list) -> None:
        # Lanes that are not this process's children would escape
        # RUSAGE_CHILDREN, and so a benchmark's cpu_s.
        base = [*bundle_args(tmp_path), "--set", f"ensemble_size={4 * census.BATCH_MIN_ENSEMBLE}",
                "--set", "swaps_per_edge=20"]
        assert main(["build", *base]) == EXIT_OK
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert main(["analyze", *base]) == EXIT_OK
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert two_cpus
        assert after.ru_utime + after.ru_stime > before.ru_utime + before.ru_stime
