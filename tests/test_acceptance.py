"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each criterion is one test, so `pytest -v` shows exactly one pass/fail
line per criterion; on success the test also prints a `criterion N:
PASS` line with its elapsed time (visible with -s or -rA).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tourflow import (
    MobilityGraph,
    RegionMap,
    average_linkage_merges,
    avg_distance_matrix,
    betweenness,
    centrality_table,
    country_correlations,
    distance_matrix,
    dyad_census,
    feature_matrix,
    motif_zscores,
    pagerank,
    regional_flows,
    rewire,
    scc,
    share_diff,
    standardize,
    structural_report,
    to_shares,
    topk_in,
    topk_out,
    triad_census,
)
from tourflow.cli import main
from tourflow.compare import AveragedDistances
from tourflow.regional import RegionalFlowMatrix

from oracles import (
    brute_force_triad_census,
    by_code,
    circulant_graph,
    codes_for,
    degree_family,
    exhaustive_betweenness,
    kosaraju_scc,
    naive_average_linkage,
    pagerank_linear_solve,
    random_digraph,
)


def finish(criterion: int, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"criterion {criterion}: PASS ({elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_topk_structural_identities() -> None:
    started = time.perf_counter()
    g = circulant_graph()
    n = len(g.nodes)
    assert n == 117
    for k, density_target in ((1, 0.009), (2, 0.017), (3, 0.026)):
        for build in (topk_out, topk_in):
            sg = build(g, k)
            assert len(sg.edges) == n * k
            report = structural_report(sg)
            assert report.avg_degree == float(k)
            assert abs(report.density - density_target) <= 0.0005
    assert structural_report(topk_out(g, 1)).transitivity == 0.0
    assert structural_report(topk_in(g, 1)).transitivity == 0.0
    finish(1, started, budget=1.0)


def test_criterion_2_dyad_census_consistency() -> None:
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        g = random_digraph(rng, n, float(rng.uniform(0.02, 0.6)))
        census = dyad_census(g)
        assert census.mutual + census.asymmetric + census.null == n * (n - 1) // 2
    assert 11 + 95 + 6680 == 6786 == 117 * 116 // 2
    finish(2, started, budget=5.0)


def test_criterion_3_oracle_equivalence_suite() -> None:
    started = time.perf_counter()
    rng = np.random.default_rng(3)

    for _ in range(200):
        n = int(rng.integers(3, 31))
        g = random_digraph(rng, n, float(rng.uniform(0.05, 0.5)))
        assert triad_census(g).counts == brute_force_triad_census(g)

    for _ in range(10):
        g = random_digraph(rng, 12, 0.3)
        expected = exhaustive_betweenness(g)
        for code, value in by_code(g.nodes, betweenness(g)).items():
            assert value == pytest.approx(expected[code], abs=1e-9)

    for _ in range(10):
        g = random_digraph(rng, 12, 0.3)
        direct = pagerank_linear_solve(g, damping=0.85)
        for code, value in by_code(g.nodes, pagerank(g, tol=1e-12)).items():
            assert abs(value - direct[code]) <= 1e-8

    for _ in range(10):
        g = random_digraph(rng, 50, 0.05)
        expected = {frozenset(m) for m in kosaraju_scc(g)}
        groups: dict[int, set[str]] = {}
        for code, cid in by_code(g.nodes, scc(g).component).items():
            groups.setdefault(cid, set()).add(code)
        assert {frozenset(ms) for ms in groups.values()} == expected

    for _ in range(10):
        g = random_digraph(rng, 12, 0.4)
        dm = distance_matrix(topk_out(g, 3))
        merges = average_linkage_merges(dm)
        reference = naive_average_linkage((dm.values + dm.values.T) / 2.0)
        for got, (left, right, height, new_id) in zip(merges, reference):
            assert (got.left, got.right, got.new_id) == (left, right, new_id)
            assert got.height == pytest.approx(height, abs=1e-12)

    finish(3, started, budget=60.0)


def test_criterion_4_null_model_correctness() -> None:
    started = time.perf_counter()
    g = random_digraph(np.random.default_rng(44), 50, 0.1)
    out_deg = dict.fromkeys(g.nodes, 0)
    in_deg = dict.fromkeys(g.nodes, 0)
    for origin, dest in g.edges:
        out_deg[origin] += 1
        in_deg[dest] += 1
    edge_count = len(g.edges)
    for sample in range(10_000):
        shuffled = rewire(g, seed=sample, swaps_per_edge=2)
        assert len(shuffled.edges) == edge_count
        sample_out = dict.fromkeys(g.nodes, 0)
        sample_in = dict.fromkeys(g.nodes, 0)
        for origin, dest in shuffled.edges:
            assert origin != dest
            sample_out[origin] += 1
            sample_in[dest] += 1
        assert sample_out == out_deg
        assert sample_in == in_deg

    codes = codes_for(4)
    cycle = MobilityGraph.build({(codes[i], codes[(i + 1) % 4]): 1 for i in range(4)}, codes)
    family = degree_family(4, [1, 1, 1, 1], [1, 1, 1, 1])
    assert len(family) == 9
    position = {code: i for i, code in enumerate(codes)}
    seen = set()
    for sample in range(2000):
        shuffled = rewire(cycle, seed=sample, swaps_per_edge=20)
        seen.add(frozenset((position[o], position[d]) for o, d in shuffled.edges))
    assert seen == family
    finish(4, started, budget=30.0)


def test_criterion_5_planted_feed_forward_motif() -> None:
    started = time.perf_counter()
    codes = codes_for(24)
    edges = {}
    for t in range(8):
        a, b, c = codes[3 * t], codes[3 * t + 1], codes[3 * t + 2]
        edges.update({(a, b): 1, (b, c): 1, (a, c): 1})
    g = MobilityGraph.build(edges, codes)
    for seed in range(5):
        scores = motif_zscores(g, ensemble_size=200, seed=seed)
        defined = {name: z for name, z in scores.z.items() if z is not None}
        argmax = max(defined, key=lambda name: defined[name])
        assert argmax == "030T"
        assert defined["030T"] > 0.0
    finish(5, started, budget=60.0)


def test_criterion_6_regional_invariants() -> None:
    started = time.perf_counter()
    region_map = RegionMap.default()
    sg = topk_out(circulant_graph(), 3)
    raw = regional_flows(sg, region_map)
    assert int(raw.values.sum()) == sg.total_weight
    shares = to_shares(raw)
    assert abs(float(shares.values.sum()) - 1.0) <= 1e-12
    self_diff = share_diff(shares, shares)
    assert np.all(self_diff.values == 0.0)

    season = np.array(
        [
            [6406, 332, 930, 0, 1, 0],
            [1690, 3104, 0, 0, 0, 0],
            [566, 0, 9627, 0, 2461, 0],
            [46, 0, 99, 23, 204, 0],
            [560, 0, 3124, 5, 15989, 0],
            [113, 0, 0, 0, 97, 79],
        ],
        dtype=np.int64,
    )
    season_shares = to_shares(RegionalFlowMatrix(region_map.regions, season, "raw"))
    total = int(season.sum())
    for r in range(6):
        for s in range(6):
            hand = int(season[r, s]) / total
            assert abs(float(season_shares.values[r, s]) - hand) <= 1e-12
    finish(6, started, budget=10.0)


def build_averaged(g: MobilityGraph) -> AveragedDistances:
    matrices = []
    for k in (1, 2, 3):
        for build in (topk_out, topk_in):
            sg = build(g, k)
            matrices.append(feature_matrix(sg, centrality_table(sg), scc(sg)))
    return avg_distance_matrix(matrices)


def test_criterion_7_comparison_identities() -> None:
    started = time.perf_counter()
    g = random_digraph(np.random.default_rng(7), 20, 0.35)

    averaged = build_averaged(g)
    self_report = country_correlations(averaged, build_averaged(g))
    for code in self_report.countries:
        rho = self_report.rho[code]
        if rho is not None:
            assert abs(rho - 1.0) <= 1e-9

    affine = AveragedDistances(averaged.countries, 2.5 * averaged.values + 0.75)
    affine_report = country_correlations(averaged, affine)
    for code in affine_report.countries:
        rho = affine_report.rho[code]
        if rho is not None:
            assert abs(rho - 1.0) <= 1e-9

    sg = topk_out(g, 2)
    fm = feature_matrix(sg, centrality_table(sg), scc(sg))
    for j in range(fm.values.shape[1]):
        column = fm.values[:, j]
        assert abs(float(column.mean())) <= 1e-12
        variance = float(column.var())
        assert abs(variance - 1.0) <= 1e-12 or variance == 0.0
    rng = np.random.default_rng(71)
    raw = rng.uniform(-10.0, 10.0, size=(20, 5))
    scaled = standardize(raw)
    assert np.all(np.abs(scaled.mean(axis=0)) <= 1e-12)
    assert np.all(np.abs(scaled.var(axis=0) - 1.0) <= 1e-12)

    other = random_digraph(np.random.default_rng(8), 20, 0.4)
    base = country_correlations(averaged, build_averaged(other))
    scaled_pair = country_correlations(
        build_averaged(MobilityGraph.build({p: w * 11 for p, w in g.edges.items()}, g.nodes)),
        build_averaged(MobilityGraph.build({p: w * 11 for p, w in other.edges.items()}, other.nodes)),
    )
    for code in base.countries:
        rho_a, rho_b = base.rho[code], scaled_pair.rho[code]
        assert (rho_a is None) == (rho_b is None)
        if rho_a is not None:
            assert abs(rho_a - rho_b) <= 1e-9
    finish(7, started, budget=30.0)


def snapshot(outdir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
        if path.is_file()
    }


def test_criterion_8_full_scale_determinism(tmp_path: Path) -> None:
    started = time.perf_counter()
    flows = tmp_path / "flows.csv"
    g = circulant_graph()
    lines = ["origin,destination,count"]
    lines += [f"{o},{d},{w}" for (o, d), w in sorted(g.edges.items())]
    flows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    base = [
        "--set", f"dataset_a_flows={flows}",
        "--set", f"output_dir={out}",
    ]
    assert main(["build", *base]) == 0
    assert main(["analyze", *base]) == 0
    first = snapshot(out)
    assert len(first) > 80, "full bundle expected"
    assert main(["analyze", *base]) == 0
    second = snapshot(out)
    assert first == second
    manifest = json.loads((out / "analyze_manifest.json").read_text())
    for name, digest in manifest["files"].items():
        assert second[name] == digest
    finish(8, started, budget=600.0)
