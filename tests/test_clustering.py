"""Affinity distances and average-linkage clustering against a naive oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourflow import (
    DistanceMatrix,
    MobilityGraph,
    average_linkage,
    average_linkage_merges,
    distance_matrix,
    filter_singletons,
    topk_in,
    topk_out,
)
from tourflow.clustering import Merge

from oracles import (
    by_code,
    circulant_graph,
    codes_for,
    dict_average_linkage,
    gravity_graph,
    naive_average_linkage,
    random_digraph,
)


class TestDistanceMatrix:
    def test_row_normalization_example(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 3, ("AA", "CC"): 1})
        dm = distance_matrix(topk_out(g, 2))
        i = {c: k for k, c in enumerate(dm.countries)}
        assert dm.values[i["AA"], i["BB"]] == pytest.approx(0.25)
        assert dm.values[i["AA"], i["CC"]] == pytest.approx(0.75)

    def test_single_out_edge_gives_zero_distance(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 9}, ("AA", "BB", "CC"))
        dm = distance_matrix(topk_out(g, 1))
        i = {c: k for k, c in enumerate(dm.countries)}
        assert dm.values[i["AA"], i["BB"]] == 0.0
        assert dm.values[i["AA"], i["CC"]] == 1.0

    def test_zero_rows_and_diagonal_are_one(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 9}, ("AA", "BB", "CC"))
        dm = distance_matrix(topk_out(g, 1))
        i = {c: k for k, c in enumerate(dm.countries)}
        for absent in ("BB", "CC"):
            row = dm.values[i[absent]]
            assert np.all(row == 1.0)
        assert np.all(np.diag(dm.values) == 1.0)

    def test_in_direction_normalizes_columns(self) -> None:
        g = MobilityGraph.build({("AA", "CC"): 3, ("BB", "CC"): 1})
        dm = distance_matrix(topk_in(g, 2))
        i = {c: k for k, c in enumerate(dm.countries)}
        assert dm.normalization == "column"
        assert dm.values[i["AA"], i["CC"]] == pytest.approx(0.25)
        assert dm.values[i["BB"], i["CC"]] == pytest.approx(0.75)

    def test_rows_with_edges_sum_consistently(self) -> None:
        g = random_digraph(np.random.default_rng(8), 12, 0.4)
        sg = topk_out(g, 3)
        dm = distance_matrix(sg)
        out_weight = dict.fromkeys(g.nodes, 0)
        for (origin, _), w in sg.edges.items():
            out_weight[origin] += w
        idx = {c: k for k, c in enumerate(dm.countries)}
        for (origin, dest), w in sg.edges.items():
            expected = 1.0 - w / out_weight[origin]
            assert dm.values[idx[origin], idx[dest]] == pytest.approx(expected, abs=1e-12)

    def test_scaling_invariance(self) -> None:
        g = random_digraph(np.random.default_rng(5), 10, 0.5)
        scaled = MobilityGraph.build({p: w * 13 for p, w in g.edges.items()}, g.nodes)
        a = distance_matrix(topk_out(g, 2)).values
        b = distance_matrix(topk_out(scaled, 2)).values
        assert np.allclose(a, b, atol=1e-12)

    def test_plain_graph_requires_direction(self) -> None:
        g = random_digraph(np.random.default_rng(5), 5, 0.5)
        with pytest.raises(ValueError, match="normalization"):
            distance_matrix(g)
        dm = distance_matrix(g, normalization="row")
        assert dm.normalization == "row"

    def test_csv_round_shape(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 3, ("AA", "CC"): 1})
        text = distance_matrix(topk_out(g, 2)).to_csv()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0] == "country,AA,BB,CC"
        assert len(lines) == 4


class TestAverageLinkage:
    @pytest.mark.parametrize("seed", range(6))
    def test_merge_sequence_matches_naive_oracle(self, seed: int) -> None:
        n = 12
        g = random_digraph(np.random.default_rng(500 + seed), n, 0.4)
        dm = distance_matrix(topk_out(g, 3))
        merges = average_linkage_merges(dm)
        expected = naive_average_linkage((dm.values + dm.values.T) / 2.0)
        assert len(merges) == n - 1
        for got, (left, right, height, new_id) in zip(merges, expected):
            assert (got.left, got.right, got.new_id) == (left, right, new_id)
            assert got.height == pytest.approx(height, abs=1e-12)

    def test_two_block_structure_recovered(self) -> None:
        codes = codes_for(6)
        edges: dict[tuple[str, str], int] = {}
        for block in (codes[:3], codes[3:]):
            for a in block:
                for b in block:
                    if a != b:
                        edges[(a, b)] = 100
        edges[(codes[0], codes[3])] = 1
        edges[(codes[3], codes[0])] = 1
        g = MobilityGraph.build(edges, codes)
        assignment = average_linkage(distance_matrix(topk_out(g, 3)), 2)
        groups: dict[int, set[str]] = {}
        for code, cid in by_code(assignment.countries, assignment.cluster).items():
            groups.setdefault(cid, set()).add(code)
        assert set(map(frozenset, groups.values())) == {
            frozenset(codes[:3]),
            frozenset(codes[3:]),
        }

    def test_n_clusters_equal_n_is_identity(self) -> None:
        g = random_digraph(np.random.default_rng(21), 7, 0.5)
        assignment = average_linkage(distance_matrix(topk_out(g, 2)), 7)
        assert assignment.sizes == (1,) * 7
        assert sorted(assignment.cluster.tolist()) == list(range(7))

    def test_single_cluster_holds_everything(self) -> None:
        g = random_digraph(np.random.default_rng(22), 7, 0.5)
        assignment = average_linkage(distance_matrix(topk_out(g, 2)), 1)
        assert assignment.sizes == (7,)
        assert set(assignment.cluster.tolist()) == {0}

    def test_cluster_ids_ordered_by_size_then_member(self) -> None:
        codes = codes_for(5)
        edges: dict[tuple[str, str], int] = {}
        for block in (codes[:2], codes[2:]):
            for a in block:
                for b in block:
                    if a != b:
                        edges[(a, b)] = 50
        g = MobilityGraph.build(edges, codes)
        assignment = average_linkage(distance_matrix(topk_out(g, 2)), 2)
        assert assignment.sizes[0] >= assignment.sizes[-1]
        cluster = by_code(assignment.countries, assignment.cluster)
        first_members = sorted(c for c, i in cluster.items() if i == 0)
        second_members = sorted(c for c, i in cluster.items() if i == 1)
        assert first_members[0] < second_members[0] or len(first_members) > len(second_members)

    def test_invalid_cluster_count(self) -> None:
        g = random_digraph(np.random.default_rng(23), 5, 0.5)
        dm = distance_matrix(topk_out(g, 2))
        with pytest.raises(ValueError, match="n_clusters"):
            average_linkage(dm, 0)
        with pytest.raises(ValueError, match="n_clusters"):
            average_linkage(dm, 6)


def _grid_matrix(n: int, cells: list[int]) -> DistanceMatrix:
    """Distances on the 5-value grid 0, 0.25, ..., 1, so most steps have ties."""
    return DistanceMatrix(codes_for(n), np.array(cells, dtype=np.float64).reshape(n, n) / 4.0, "row")


class TestDenseAgglomeration:
    """The dense slot matrix reproduces the pairwise dict agglomeration exactly.

    Merge tuples are compared with ``==``, heights included, so every tie
    must resolve to the same pair and every Lance-Williams average must
    round the same way.
    """

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_circulant_topk_matrices(self, direction: str) -> None:
        graph = circulant_graph()
        extract = topk_out if direction == "out" else topk_in
        for k in range(1, 11):
            dm = distance_matrix(extract(graph, k))
            assert average_linkage_merges(dm) == dict_average_linkage(dm), k

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_gravity_topk_matrices(self, direction: str) -> None:
        graph = gravity_graph(np.random.default_rng(2), 117)
        extract = topk_out if direction == "out" else topk_in
        for k in range(1, 11):
            dm = distance_matrix(extract(graph, k))
            assert average_linkage_merges(dm) == dict_average_linkage(dm), k

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))))
    def test_coarse_grid_matrices(self, drawn: tuple[int, list[int]]) -> None:
        dm = _grid_matrix(*drawn)
        assert average_linkage_merges(dm) == dict_average_linkage(dm)

    @pytest.mark.parametrize("cells", [
        [0, 3, 1, 0],
        [4, 1, 1, 1, 4, 1, 1, 1, 4],
        [0, 2, 2, 2, 0, 1, 2, 3, 0],
    ])
    def test_two_and_three_items(self, cells: list[int]) -> None:
        dm = _grid_matrix(int(len(cells) ** 0.5), cells)
        assert average_linkage_merges(dm) == dict_average_linkage(dm)

    def test_ties_merge_the_smallest_id_pair_first(self) -> None:
        merges = average_linkage_merges(_grid_matrix(3, [4] * 9))
        assert merges == (Merge(0, 1, 1.0, 3, 2), Merge(2, 3, 1.0, 4, 3))

    def test_non_finite_distances_rejected(self) -> None:
        dm = DistanceMatrix(codes_for(2), np.array([[0.0, np.nan], [np.nan, 0.0]]), "row")
        with pytest.raises(ValueError, match="finite"):
            average_linkage_merges(dm)


class TestFilterSingletons:
    def test_identity_when_no_singletons(self) -> None:
        g = random_digraph(np.random.default_rng(24), 6, 0.9)
        assignment = average_linkage(distance_matrix(topk_out(g, 3)), 2)
        if 1 not in assignment.sizes:
            assert filter_singletons(assignment) is assignment

    def test_singletons_marked_ignored(self) -> None:
        codes = codes_for(5)
        edges: dict[tuple[str, str], int] = {}
        for a in codes[:4]:
            for b in codes[:4]:
                if a != b:
                    edges[(a, b)] = 10
        g = MobilityGraph.build(edges, codes)
        assignment = average_linkage(distance_matrix(topk_out(g, 3)), 2)
        filtered = filter_singletons(assignment)
        singles = {i for i, s in zip(range(len(assignment.sizes)), assignment.sizes) if s == 1}
        assert filtered.ignored == frozenset(singles)
        assert filtered.cluster is assignment.cluster

    def test_csv_flags_ignored_rows(self) -> None:
        codes = codes_for(5)
        edges = {(a, b): 10 for a in codes[:4] for b in codes[:4] if a != b}
        g = MobilityGraph.build(edges, codes)
        filtered = filter_singletons(average_linkage(distance_matrix(topk_out(g, 3)), 2))
        lines = filtered.to_csv().splitlines()
        assert lines[0] == "country,cluster_id,ignored"
        flagged = [ln for ln in lines[1:] if ln.endswith(",true")]
        assert len(flagged) == sum(1 for s in filtered.sizes if s == 1)
