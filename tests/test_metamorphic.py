"""Metamorphic relations: how the bundle answers a known change to its inputs.

Each relation runs ``build`` and ``analyze`` on the 15-country inputs of
CI's lane-count check, and on a transformed copy, and compares the file
bodies below the metadata header: the header's config hash names the
input files, so it differs between the two runs by design.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tourflow import (
    avg_distance_matrix,
    centrality_table,
    country_correlations,
    feature_matrix,
    parse_flow_matrix,
    scc,
    topk_in,
    topk_out,
)
from tourflow.cli import EXIT_OK, main
from tourflow.metrics import sig6

CODES = [a + b for a in "ABC" for b in "ABCDE"]
CODE = re.compile(r"\b[A-C][A-E]\b")
META_PREFIXES = ("# tool:", "# config:", "# seed:")


def write_inputs(work: Path, relabel=lambda code: code, scale: int = 1) -> tuple[Path, Path, Path]:
    """Two random 15-country flow matrices and a two-region map, with each
    code renamed by ``relabel`` and each flow multiplied by ``scale``."""
    work.mkdir()
    rng = np.random.default_rng(12)
    flows = []
    for name in ("a", "b"):
        counts = rng.integers(0, 400, (len(CODES), len(CODES)))
        lines = ["origin,destination,count"] + [
            f"{relabel(o)},{relabel(d)},{scale * counts[i, j]}" for i, o in enumerate(CODES)
            for j, d in enumerate(CODES) if i != j and counts[i, j]]
        flows.append(work / f"{name}.csv")
        flows[-1].write_text("\n".join(lines) + "\n")
    regions = [f"{relabel(code)},{'East' if i % 3 else 'West'}" for i, code in enumerate(CODES)]
    (work / "regions.csv").write_text("country,region\n" + "\n".join(regions) + "\n")
    return flows[0], flows[1], work / "regions.csv"


def run(out: Path, a: Path, b: Path, regions: Path) -> dict[str, str]:
    """Build and analyze datasets a and b into ``out``; each file's body, manifests aside.

    A CSV's body is what follows its metadata header, a JSON file's is
    the document without its ``meta`` object.  The manifests hash whole
    files, headers included, so they are left out.
    """
    pairs = [f"dataset_a_flows={a}", f"dataset_b_flows={b}", f"region_map={regions}",
             f"output_dir={out}", "ensemble_size=20", "swaps_per_edge=40", "k_values=1,2,3"]
    args = [arg for pair in pairs for arg in ("--set", pair)]
    assert main(["build", *args]) == EXIT_OK
    assert main(["analyze", *args]) == EXIT_OK
    bodies = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith("_manifest.json"):
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            document = json.loads(text)
            del document["meta"]
            bodies[path.name] = json.dumps(document, indent=2)
        else:
            *header, body = text.split("\n", len(META_PREFIXES))
            assert all(map(str.startswith, header, META_PREFIXES)), path.name
            bodies[path.name] = body
    return bodies


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The inputs as CI writes them, and their bundle's bodies."""
    work = tmp_path_factory.mktemp("base")
    inputs = write_inputs(work / "in")
    return work / "in", run(work / "out", *inputs)


def cells(body: str) -> list[list[str]]:
    return [line.split(",") for line in body.splitlines()]


def test_r2_doubling_every_flow_doubles_only_the_weights(base, tmp_path) -> None:
    # c = 2 scales every float step exactly; c = 3 would not.
    _, bodies = base
    doubled = run(tmp_path / "out", *write_inputs(tmp_path / "in", scale=2))
    assert sorted(doubled) == sorted(bodies)
    tags = [f"{name}_{direction}_{k}" for name in "ab" for direction in ("in", "out")
            for k in (1, 2, 3)]
    weighted = [f"graph_{name}.csv" for name in "ab"] + [
        f"regional_{name}_{direction}_raw.csv" for name in "ab" for direction in ("in", "out")]
    strengths = [f"centrality_{tag}_{end}_strength.csv" for tag in tags for end in ("in", "out")]
    structural = [f"structural_{tag}.{suffix}" for tag in tags for suffix in ("csv", "json")]
    changed = [name for name in bodies if doubled[name] != bodies[name]]
    assert sorted(changed) == sorted(weighted + strengths + structural)
    assert len(changed) == 54
    for name in weighted:
        # Labels stay, every count doubles.
        for row, doubled_row in zip(cells(bodies[name]), cells(doubled[name]), strict=True):
            assert [str(2 * int(cell)) if cell.isdigit() else cell for cell in row] == doubled_row
    for name in strengths:
        (header, *rows), (doubled_header, *doubled_rows) = cells(bodies[name]), cells(doubled[name])
        assert doubled_header == header == ["rank", "country", "value"]
        assert [row[:2] for row in doubled_rows] == [row[:2] for row in rows]
        assert [int(row[2]) for row in doubled_rows] == [2 * int(row[2]) for row in rows]
    for tag in tags:
        report = json.loads(bodies[f"structural_{tag}.json"])
        strength = 2 * report["avg_strength"]
        assert json.loads(doubled[f"structural_{tag}.json"]) == {**report, "avg_strength": strength}
        rows = cells(bodies[f"structural_{tag}.csv"])
        assert cells(doubled[f"structural_{tag}.csv"]) == [
            [metric, sig6(strength)] if metric == "avg_strength" else [metric, value]
            for metric, value in rows]


def test_r4_swapping_the_datasets_negates_share_differences(base, tmp_path) -> None:
    inputs, bodies = base
    swapped = run(tmp_path / "out", inputs / "b.csv", inputs / "a.csv", inputs / "regions.csv")
    assert swapped["correlations.csv"] == bodies["correlations.csv"]
    names = [name for name in bodies if name.startswith("sharediff_")]
    assert names == ["sharediff_in.csv", "sharediff_out.csv"]
    for name in names:
        (header, *rows), (swapped_header, *swapped_rows) = cells(bodies[name]), cells(swapped[name])
        assert swapped_header == header
        assert [row[0] for row in swapped_rows] == [row[0] for row in rows]
        assert [[-float(cell) for cell in row[1:]] for row in rows] == [
            [float(cell) for cell in row[1:]] for row in swapped_rows]


def test_r3_an_order_preserving_relabelling_changes_only_the_labels(base, tmp_path) -> None:
    # A -> D, B -> E, C -> F keeps the codes' sorted order.
    def relabel(code: str) -> str:
        return chr(ord(code[0]) + 3) + code[1]

    _, bodies = base
    relabelled = run(tmp_path / "out", *write_inputs(tmp_path / "in", relabel))
    assert sorted(relabelled) == sorted(bodies)
    for name, body in bodies.items():
        assert relabelled[name] == CODE.sub(lambda match: relabel(match.group()), body), name
    assert "DA,DB" in relabelled["distance_a_out_1.csv"]


def test_correlations_are_symmetric_in_the_datasets(base) -> None:
    inputs, _ = base

    def averaged(path: Path):
        graph = parse_flow_matrix(path)
        return avg_distance_matrix([
            feature_matrix(sg, centrality_table(sg), scc(sg))
            for k in (1, 2, 3) for sg in (topk_out(graph, k), topk_in(graph, k))])

    a, b = averaged(inputs / "a.csv"), averaged(inputs / "b.csv")
    assert country_correlations(a, b).rho.tobytes() == country_correlations(b, a).rho.tobytes()
