"""Structural metrics, centralities and components against oracles."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourflow import (
    ConvergenceError,
    MobilityGraph,
    betweenness,
    centrality_table,
    degree_centralization,
    dyad_census,
    pagerank,
    scc,
    structural_report,
    topk_in,
    topk_out,
)
from tourflow import metrics
from tourflow.metrics import competition_ranks, geodesic_stats, matrix_csv, transitivity

from oracles import (
    bfs_geodesic_stats,
    circulant_graph,
    codes_for,
    exhaustive_betweenness,
    floyd_warshall_stats,
    gravity_graph,
    index_edges,
    kosaraju_scc,
    pagerank_linear_solve,
    random_digraph,
    serial_brandes_betweenness,
    successor_lists,
)


def brute_transitivity(g: MobilityGraph) -> float:
    n = len(g.nodes)
    neigh: list[set[int]] = [set() for _ in range(n)]
    for i, j in index_edges(g):
        neigh[i].add(j)
        neigh[j].add(i)
    triples = sum(len(s) * (len(s) - 1) // 2 for s in neigh)
    triangles = sum(
        1
        for i, j, k in itertools.combinations(range(n), 3)
        if j in neigh[i] and k in neigh[i] and k in neigh[j]
    )
    return 3 * triangles / triples if triples else 0.0


class TestDyadCensus:
    def test_isolated_nodes(self) -> None:
        g = MobilityGraph(("AA", "BB", "CC"), {})
        census = dyad_census(g)
        assert (census.mutual, census.asymmetric, census.null) == (0, 0, 3)

    def test_mutual_pair_plus_isolated(self) -> None:
        g = MobilityGraph(("AA", "BB", "CC"), {("AA", "BB"): 1, ("BB", "AA"): 2})
        census = dyad_census(g)
        assert (census.mutual, census.asymmetric, census.null) == (1, 0, 2)

    def test_matches_exhaustive_pair_scan(self) -> None:
        g = random_digraph(np.random.default_rng(10), 20, 0.3)
        edges = index_edges(g)
        mutual = asymmetric = null = 0
        for i, j in itertools.combinations(range(20), 2):
            forward, backward = (i, j) in edges, (j, i) in edges
            if forward and backward:
                mutual += 1
            elif forward or backward:
                asymmetric += 1
            else:
                null += 1
        census = dyad_census(g)
        assert (census.mutual, census.asymmetric, census.null) == (mutual, asymmetric, null)

    @given(seed=st.integers(0, 100_000), n=st.integers(2, 30))
    @settings(max_examples=80, deadline=None)
    def test_sum_is_n_choose_2(self, seed: int, n: int) -> None:
        g = random_digraph(np.random.default_rng(seed), n, 0.3)
        census = dyad_census(g)
        assert census.total == n * (n - 1) // 2


class TestPagerank:
    def test_two_cycle_splits_evenly(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 3, ("BB", "AA"): 3})
        ranks = pagerank(g)
        assert ranks["AA"] == pytest.approx(0.5, abs=1e-9)
        assert ranks["BB"] == pytest.approx(0.5, abs=1e-9)

    def test_isolated_nodes_uniform(self) -> None:
        g = MobilityGraph(("AA", "BB", "CC"), {})
        ranks = pagerank(g)
        assert all(v == pytest.approx(1 / 3, abs=1e-9) for v in ranks.values())

    def test_sums_to_one(self) -> None:
        g = random_digraph(np.random.default_rng(2), 40, 0.15)
        assert sum(pagerank(g).values()) == pytest.approx(1.0, abs=1e-9)

    def test_scaling_invariance(self) -> None:
        g = random_digraph(np.random.default_rng(3), 15, 0.3)
        scaled = MobilityGraph(g.nodes, {p: w * 7 for p, w in g.edges.items()})
        base = pagerank(g)
        for code, value in pagerank(scaled).items():
            assert value == pytest.approx(base[code], abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linear_solve(self, seed: int) -> None:
        g = random_digraph(np.random.default_rng(100 + seed), 12, 0.35)
        direct = pagerank_linear_solve(g, damping=0.85)
        iterated = pagerank(g, damping=0.85, tol=1e-12)
        for code in g.nodes:
            assert iterated[code] == pytest.approx(direct[code], abs=1e-8)

    def test_bad_damping_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match="damping"):
            pagerank(g, damping=1.0)

    @pytest.mark.parametrize("settings, message", [
        ({"max_iter": 0}, "max_iter"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-9}, "tol"),
        ({"tol": float("nan")}, "tol"),
    ])
    def test_bad_tol_and_max_iter_rejected(self, settings: dict, message: str) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match=message):
            pagerank(g, **settings)

    def test_non_convergence_reports_residual(self) -> None:
        g = random_digraph(np.random.default_rng(4), 20, 0.3)
        with pytest.raises(ConvergenceError, match="residual"):
            pagerank(g, tol=1e-15, max_iter=2)


class TestBetweenness:
    def test_two_hop_path(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1, ("BB", "CC"): 1})
        scores = betweenness(g)
        assert scores == {"AA": 0.0, "BB": 1.0, "CC": 0.0}

    def test_complete_mutual_graph_all_zero(self) -> None:
        codes = codes_for(4)
        edges = {(a, b): 1 for a in codes for b in codes if a != b}
        assert set(betweenness(MobilityGraph(codes, edges)).values()) == {0.0}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_path_enumeration(self, seed: int) -> None:
        g = random_digraph(np.random.default_rng(200 + seed), 10, 0.3)
        expected = exhaustive_betweenness(g)
        for code, value in betweenness(g).items():
            assert value == pytest.approx(expected[code], abs=1e-9)


@st.composite
def digraphs(draw, max_nodes: int = 40) -> MobilityGraph:
    """A digraph on 1..max_nodes nodes, possibly without arcs, with isolated nodes and sinks."""
    n = draw(st.integers(1, max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    arcs = draw(st.sets(pairs, max_size=min(n * (n - 1), 4 * n)))
    codes = codes_for(n)
    return MobilityGraph(codes, {(codes[i], codes[j]): 1 for i, j in arcs})


def layered_graph(rng: np.random.Generator, width: int, depth: int) -> MobilityGraph:
    """A source, ``depth`` layers of ``width`` nodes and a sink; each node
    reaches 1..width random nodes of the next layer."""
    n = width * depth + 2
    codes = codes_for(n)
    inner = [list(range(1 + d * width, 1 + (d + 1) * width)) for d in range(depth)]
    layers = [[0], *inner, [n - 1]]
    edges = {}
    for here, there in zip(layers, layers[1:]):
        for u in here:
            chosen = rng.choice(there, size=rng.integers(1, len(there) + 1), replace=False)
            edges.update({(codes[u], codes[int(v)]): 1 for v in chosen})
        for v in there:  # every node of the next layer is reached
            edges.setdefault((codes[int(rng.choice(here))], codes[v]), 1)
    return MobilityGraph(codes, edges)


def path_counts(graph: MobilityGraph, source: int, reverse: bool) -> tuple[list[int], list[float]]:
    """Shortest-path counts from ``source``, exact and as floats added in BFS
    order (successors ascending, or descending with ``reverse``)."""
    succ = successor_lists(graph)
    n = len(succ)
    exact, approx, dist = [0] * n, [0.0] * n, [-1] * n
    exact[source], approx[source], dist[source] = 1, 1.0, 0
    queue = [source]
    for u in queue:
        for v in (reversed(succ[u]) if reverse else succ[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                exact[v] += exact[u]
                approx[v] += approx[u]
    return exact, approx


def assert_serial_values(graph: MobilityGraph) -> None:
    """The one pass gives the serial algorithms' values, every float bit for bit."""
    assert betweenness(graph) == serial_brandes_betweenness(graph)
    assert geodesic_stats(graph) == bfs_geodesic_stats(graph)


class TestShortestPathPass:
    """One numpy pass per graph equals the serial Brandes and BFS loops exactly (``==``)."""

    @given(graph=digraphs())
    @example(graph=MobilityGraph(("AA",), {}))
    @example(graph=MobilityGraph(codes_for(5), {}))
    @settings(max_examples=300, deadline=None)
    def test_equals_serial_loops(self, graph: MobilityGraph) -> None:
        assert_serial_values(graph)

    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("source", ["circulant", "gravity"])
    def test_topk_subgraphs(self, source: str, k: int) -> None:
        graph = (circulant_graph() if source == "circulant"
                 else gravity_graph(np.random.default_rng(117), 117))
        for sg in (topk_out(graph, k), topk_in(graph, k)):
            assert_serial_values(sg)

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_last_bits_decide_competition_ranks(self, k: int) -> None:
        # Every country of a circulant Top-k subgraph has the same
        # betweenness in exact arithmetic.  The floats differ in their last
        # bits, so the competition ranks written to the bundle follow the
        # order of every addition.
        sg = topk_out(circulant_graph(), k)
        values = betweenness(sg)
        assert len({round(value, 6) for value in values.values()}) == 1
        assert len(set(values.values())) > 1
        assert competition_ranks(values) == competition_ranks(serial_brandes_betweenness(sg))

    def test_path_counts_beyond_float_precision(self) -> None:
        graph = layered_graph(np.random.default_rng(53), 8, 30)
        exact, ascending = path_counts(graph, 0, reverse=False)
        _, descending = path_counts(graph, 0, reverse=True)
        assert max(exact) > 2**53
        # Counts are no longer exact, and the order of the additions shows.
        assert any(float(e) != a for e, a in zip(exact, ascending))
        assert ascending != descending
        assert_serial_values(graph)

    @pytest.mark.parametrize("budget", [1, 2, 25, 59, 200])
    def test_blocks_cut_mid_graph(self, monkeypatch, budget: int) -> None:
        # 13 nodes and at most 2 * 13 arcs per graph: blocks of 1 to 7 sources.
        monkeypatch.setattr(metrics, "_BLOCK_VISITS", budget)
        for seed in range(4):
            graph = random_digraph(np.random.default_rng(600 + seed), 13, 0.15)
            assert_serial_values(graph)

    def test_blocks_at_the_module_budget(self) -> None:
        # The complete digraph on 60 nodes runs in blocks of 18, 18, 18 and 6 sources.
        codes = codes_for(60)
        graph = MobilityGraph(codes, {(a, b): 1 for a in codes for b in codes if a != b})
        assert metrics._BLOCK_VISITS // len(graph.edges) == 18
        assert_serial_values(graph)

    @pytest.mark.parametrize("out_degree", [1, 3, 10])
    def test_memory_at_676_nodes(self, out_degree: int) -> None:
        codes = codes_for(676)
        rng = np.random.default_rng(676 + out_degree)
        edges = {}
        for i, code in enumerate(codes):
            for j in rng.choice(675, size=out_degree, replace=False):
                edges[(code, codes[(i + 1 + int(j)) % 676])] = 1
        graph = MobilityGraph(codes, edges)
        graph.arcs  # built before tracing: the pass's own memory is measured
        tracemalloc.start()
        try:
            metrics.shortest_path_pass(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # the budget's comment states under 2 MiB

    def test_structural_report_and_centralities_share_one_pass(self, monkeypatch) -> None:
        calls = []
        shortest_path_pass = metrics.shortest_path_pass
        monkeypatch.setattr(metrics, "shortest_path_pass",
                            lambda graph: calls.append(graph) or shortest_path_pass(graph))
        sg = topk_out(random_digraph(np.random.default_rng(8), 20, 0.3), 3)
        structural_report(sg)
        centrality_table(sg)
        assert calls == [sg]


class TestDegreeCentralization:
    def test_regular_graph_is_zero(self) -> None:
        codes = codes_for(5)
        edges = {(codes[i], codes[(i + 1) % 5]): 1 for i in range(5)}
        g = MobilityGraph(codes, edges)
        assert degree_centralization(g, "in") == 0.0
        assert degree_centralization(g, "out") == 0.0

    def test_out_star_is_one(self) -> None:
        codes = codes_for(6)
        edges = {(codes[0], c): 1 for c in codes[1:]}
        assert degree_centralization(MobilityGraph(codes, edges), "out") == pytest.approx(1.0)

    def test_small_graph_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match=">= 3 nodes"):
            degree_centralization(g, "in")

    def test_formula_direct(self) -> None:
        g = random_digraph(np.random.default_rng(9), 15, 0.3)
        degrees = dict.fromkeys(g.nodes, 0)
        for _, dest in g.edges:
            degrees[dest] += 1
        top = max(degrees.values())
        expected = sum(top - d for d in degrees.values()) / 14**2
        assert degree_centralization(g, "in") == pytest.approx(expected, abs=1e-12)


class TestScc:
    def test_dag_gives_singletons(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1, ("BB", "CC"): 1})
        assert scc(g).sizes == (1, 1, 1)

    def test_cycle_is_one_component(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1, ("BB", "CC"): 1, ("CC", "AA"): 1})
        result = scc(g)
        assert result.sizes == (3,)
        assert set(result.component.values()) == {0}

    def test_ids_ordered_by_size_then_code(self) -> None:
        edges = {("AA", "BB"): 1, ("BB", "AA"): 1,
                 ("CC", "DD"): 1, ("DD", "CC"): 1}
        g = MobilityGraph(("AA", "BB", "CC", "DD", "EE"), edges)
        result = scc(g)
        assert result.component["AA"] == result.component["BB"] == 0
        assert result.component["CC"] == result.component["DD"] == 1
        assert result.component["EE"] == 2
        assert result.sizes == (2, 2, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_matches_kosaraju(self, seed: int) -> None:
        g = random_digraph(np.random.default_rng(300 + seed), 50, 0.06)
        expected = {frozenset(members) for members in kosaraju_scc(g)}
        result = scc(g)
        groups: dict[int, set[str]] = {}
        for code, cid in result.component.items():
            groups.setdefault(cid, set()).add(code)
        assert {frozenset(ms) for ms in groups.values()} == expected


class TestStructuralReport:
    def test_too_few_nodes_rejected(self) -> None:
        small = MobilityGraph(("AA",), {})
        with pytest.raises(ValueError, match=">= 2 nodes"):
            structural_report(small, centralization_direction="in")

    def test_plain_graph_needs_explicit_direction(self) -> None:
        g = random_digraph(np.random.default_rng(1), 8, 0.4)
        with pytest.raises(ValueError, match="centralization_direction"):
            structural_report(g)

    def test_centralization_taken_on_unconstrained_direction(self) -> None:
        g = random_digraph(np.random.default_rng(12), 12, 0.5)
        out_sg = topk_out(g, 2)
        in_sg = topk_in(g, 2)
        out_report = structural_report(out_sg)
        in_report = structural_report(in_sg)
        assert out_report.centralization_direction == "in"
        assert in_report.centralization_direction == "out"
        assert out_report.degree_centralization == pytest.approx(
            degree_centralization(out_sg, "in"))
        assert in_report.degree_centralization == pytest.approx(
            degree_centralization(in_sg, "out"))

    @pytest.mark.parametrize("seed", range(5))
    def test_fields_match_oracles(self, seed: int) -> None:
        g = random_digraph(np.random.default_rng(400 + seed), 15, 0.25)
        sg = topk_out(g, 3)
        report = structural_report(sg)
        n = 15
        assert report.node_count == n
        assert report.edge_count == len(sg.edges)
        assert report.density == pytest.approx(len(sg.edges) / (n * (n - 1)), abs=1e-12)
        assert report.avg_degree == pytest.approx(len(sg.edges) / n, abs=1e-12)
        assert report.avg_strength == pytest.approx(sum(sg.edges.values()) / n, abs=1e-12)
        avg_geo, diameter, unreachable = floyd_warshall_stats(sg)
        assert report.avg_geodesic == pytest.approx(avg_geo, abs=1e-12)
        assert report.diameter == diameter
        assert report.unreachable_pairs == unreachable
        census = dyad_census(sg)
        assert report.dyads == census
        adjacent = 2 * census.mutual + census.asymmetric
        expected_reciprocity = 2 * census.mutual / adjacent if adjacent else 0.0
        assert report.reciprocity == pytest.approx(expected_reciprocity, abs=1e-12)
        assert report.transitivity == pytest.approx(brute_transitivity(sg), abs=1e-12)

    def test_reciprocity_equals_reciprocated_edge_share(self) -> None:
        g = random_digraph(np.random.default_rng(6), 20, 0.3)
        reciprocated = sum(1 for (o, d) in g.edges if (d, o) in g.edges)
        report = structural_report(g, centralization_direction="in")
        assert report.reciprocity == pytest.approx(reciprocated / len(g.edges), abs=1e-12)

    def test_geodesics_ignore_unreachable_pairs(self) -> None:
        g = MobilityGraph(("AA", "BB", "CC"), {("AA", "BB"): 1})
        avg, diameter, unreachable = geodesic_stats(g)
        assert (avg, diameter, unreachable) == (1.0, 1, 5)

    def test_avg_strength_non_decreasing_in_k(self) -> None:
        g = random_digraph(np.random.default_rng(31), 20, 0.5)
        strengths = [structural_report(topk_out(g, k)).avg_strength for k in (1, 2, 3, 4)]
        assert strengths == sorted(strengths)

    def test_json_and_csv_serialization(self) -> None:
        g = random_digraph(np.random.default_rng(7), 10, 0.4)
        report = structural_report(topk_in(g, 2))
        payload = report.to_json(meta={"seed": 1})
        assert '"meta"' in payload and '"dyads"' in payload
        csv_text = report.to_csv()
        assert csv_text.startswith("metric,value\n")
        assert "dyads_mutual," in csv_text


class TestTransitivityEdgeCases:
    def test_no_triples_is_zero(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        assert transitivity(g) == 0.0

    def test_triangle_is_one(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1, ("BB", "CC"): 1, ("CC", "AA"): 1})
        assert transitivity(g) == pytest.approx(1.0)


class TestRanksAndTable:
    def test_competition_ranking_skips_after_tie(self) -> None:
        ranks = competition_ranks({"AA": 5.0, "BB": 5.0, "CC": 3.0, "DD": 1.0})
        assert ranks == {"AA": 1, "BB": 1, "CC": 3, "DD": 4}

    def test_table_matches_component_functions(self) -> None:
        g = random_digraph(np.random.default_rng(13), 15, 0.3)
        table = centrality_table(g)
        assert table.values["pagerank"] == pagerank(g)
        assert table.values["betweenness"] == betweenness(g)
        in_strength = dict.fromkeys(g.nodes, 0.0)
        for (_, dest), weight in g.edges.items():
            in_strength[dest] += weight
        assert table.values["in_strength"] == in_strength

    def test_csv_layout(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 2, ("CC", "BB"): 1})
        text = centrality_table(g).to_csv("in_degree")
        lines = text.splitlines()
        assert lines[0] == "rank,country,value"
        assert lines[1] == "1,BB,2"

    def test_unknown_measure_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 2})
        with pytest.raises(ValueError, match="unknown measure"):
            centrality_table(g).to_csv("closeness")


class TestMatrixCsv:
    """``matrix_csv`` formats a row with one % string; every cell keeps its format(cell, spec) bytes."""

    @given(value=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(value=-0.0)
    @example(value=5e-324)
    @example(value=-2.2250738585072014e-308)
    @example(value=float("nan"))
    @example(value=float("-inf"))
    @example(value=1e16)
    @example(value=123456789012.5)
    @settings(max_examples=2000, deadline=None)
    def test_percent_g_equals_format_spec(self, value: float) -> None:
        assert "%.12g" % value == f"{value:.12g}"

    def test_rows_equal_per_cell_formatting(self) -> None:
        rng = np.random.default_rng(5)
        values = rng.standard_normal((117, 117)) * 10.0 ** rng.integers(-320, 300, (117, 117))
        values.flat[:6] = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 0.0]
        labels = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(117)]
        expected = ["country," + ",".join(labels)] + [
            label + "," + ",".join(f"{v:.12g}" for v in row) for label, row in zip(labels, values)]
        assert matrix_csv("country", labels, values) == "\n".join(expected) + "\n"

    def test_integer_format_needs_an_integer_matrix(self) -> None:
        with pytest.raises(ValueError, match="integer matrix"):
            matrix_csv("region", ["A"], np.array([[1.5]]), "d")
