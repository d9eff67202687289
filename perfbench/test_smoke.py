"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced; each must report every metric
that BENCHMARK.json names, pass its bundle checks and match the tiny
reference digest.  The bundle check must reject a tampered or stray
file, and the benchmark must fail without a result where no source
tree is present.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload: str, trace: str) -> None:
    done = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["cli.analyze_s"] > metrics["cli.analyze.self_s"] > 0
        assert metrics["census.rewire.calls"] >= 2
        assert metrics["host.slowdown"] > 0 and metrics["host.wall_s"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_other_seed_checks_run_to_run_identity() -> None:
    done = bench("--workload", "topk-sweep", "--seed", "7", "--seconds", "1",
                 "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def _bundle(out: Path) -> None:
    out.mkdir()
    (out / "graph_a.csv").write_text("origin,destination,count\n")
    (out / "analysis_summary.json").write_text(json.dumps({"datasets": ["a"]}))
    for manifest, names in (("build_manifest.json", ["graph_a.csv"]),
                            ("analyze_manifest.json", ["analysis_summary.json"])):
        files = {name: run.file_sha256(out / name) for name in names}
        (out / manifest).write_text(json.dumps({"files": files}))


def test_check_bundle_rejects_tampered_and_stray_files(tmp_path: Path) -> None:
    out = tmp_path / "out"
    _bundle(out)
    digest = run.check_bundle(out, ("a",))
    with pytest.raises(ValueError, match="expected"):
        run.check_bundle(out, ("a", "b"))
    (out / "graph_b.csv").write_text("stale\n")
    with pytest.raises(ValueError, match="no manifest"):
        run.check_bundle(out, ("a",))
    (out / "graph_b.csv").unlink()
    assert run.check_bundle(out, ("a",)) == digest
    (out / "graph_a.csv").write_text("origin,destination,count\nAA,BB,1\n")
    with pytest.raises(ValueError, match="does not match"):
        run.check_bundle(out, ("a",))


def test_fails_without_a_source_tree(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    done = bench("--workload", "paper-flows", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
