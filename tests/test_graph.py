"""Graph type invariants, Top-k extraction and export round-trips."""

from __future__ import annotations

import io
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourflow import MobilityGraph, export_graph, parse_flow_matrix, rewire, topk_in, topk_out

from oracles import codes_for, dict_arrays, random_digraph


def graph_from_seed(seed: int, n: int = 12, p: float = 0.35) -> MobilityGraph:
    return random_digraph(np.random.default_rng(seed), n, p)


class TestMobilityGraph:
    def test_build_derives_sorted_nodes(self) -> None:
        g = MobilityGraph.build({("US", "MX"): 2, ("BR", "US"): 1})
        assert g.nodes == ("BR", "MX", "US")
        assert g.edge_count == 2
        assert g.total_weight == 3

    def test_rejects_self_loop(self) -> None:
        with pytest.raises(ValueError, match="self-loop"):
            MobilityGraph.build({("FR", "FR"): 5})
        with pytest.raises(ValueError, match="self-loop on 'BB'"):
            MobilityGraph(("AA", "BB"), ([0, 1], [1, 1]), [1, 1])

    def test_rejects_non_positive_weight(self) -> None:
        for weight in (0, True, 2.0):
            with pytest.raises(ValueError, match="weight"):
                MobilityGraph.build({("FR", "ES"): weight})
        with pytest.raises(ValueError, match="weight"):
            MobilityGraph(("AA", "BB"), ([0, 1], [1, 0]), [3, 0])

    def test_rejects_unsorted_nodes(self) -> None:
        with pytest.raises(ValueError, match="sorted"):
            MobilityGraph(("US", "BR"), ([], []), [])

    @pytest.mark.parametrize("arcs", [([1, 0], [2, 1]), ([0, 0], [1, 1])],
                             ids=["unsorted", "duplicate"])
    def test_rejects_unsorted_or_duplicate_arcs(self, arcs) -> None:
        with pytest.raises(ValueError, match="sorted"):
            MobilityGraph(("AA", "BB", "CC"), arcs, [1, 1])

    def test_rejects_edge_outside_node_set(self) -> None:
        for arcs in (([-1], [1]), ([0], [2]), ([2], [0])):
            with pytest.raises(ValueError, match="unknown node"):
                MobilityGraph(("BR", "US"), arcs, [1])

    @pytest.mark.parametrize("arcs, weights", [(([0], [1, 2]), [1]), (([0, 0], [1, 2]), [1]),
                                               (([[0]], [[1]]), [[1]])])
    def test_rejects_arrays_of_other_shapes(self, arcs, weights) -> None:
        with pytest.raises(ValueError, match="one length"):
            MobilityGraph(("AA", "BB", "CC"), arcs, weights)

    def test_isolated_nodes_allowed(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 4}, ("AA", "BB", "CC"))
        assert g.node_count == 3


class TestTopK:
    def test_out_keeps_max_weight(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1, ("AA", "CC"): 9})
        sg = topk_out(g, 1)
        assert set(sg.edges) == {("AA", "CC")}

    def test_in_keeps_max_weight(self) -> None:
        g = MobilityGraph.build({("AA", "CC"): 5, ("BB", "CC"): 2})
        sg = topk_in(g, 1)
        assert set(sg.edges) == {("AA", "CC")}

    def test_in_tie_breaks_to_smaller_origin(self) -> None:
        g = MobilityGraph.build({("AA", "CC"): 5, ("BB", "CC"): 5})
        sg = topk_in(g, 1)
        assert set(sg.edges) == {("AA", "CC")}

    def test_out_tie_breaks_to_smaller_destination(self) -> None:
        g = MobilityGraph.build({("CC", "AA"): 5, ("CC", "BB"): 5})
        sg = topk_out(g, 1)
        assert set(sg.edges) == {("CC", "AA")}

    def test_large_k_is_identity(self) -> None:
        g = graph_from_seed(3)
        sg = topk_out(g, len(g.nodes))
        assert sg.edges == g.edges

    def test_node_set_preserved(self) -> None:
        g = graph_from_seed(4)
        for sg in (topk_out(g, 1), topk_in(g, 1)):
            assert sg.nodes == g.nodes

    def test_rejects_k_below_one(self) -> None:
        g = graph_from_seed(5)
        with pytest.raises(ValueError, match="k must be"):
            topk_out(g, 0)
        with pytest.raises(ValueError, match="k must be"):
            topk_in(g, -1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_per_node_sort_oracle(self, k: int) -> None:
        g = random_digraph(np.random.default_rng(90 + k), 25, 0.4)
        expected: dict[tuple[str, str], int] = {}
        for node in g.nodes:
            outgoing = [(w, d) for (o, d), w in g.edges.items() if o == node]
            outgoing.sort(key=lambda wd: (-wd[0], wd[1]))
            for w, d in outgoing[:k]:
                expected[(node, d)] = w
        assert topk_out(g, k).edges == expected

    def test_in_matches_per_node_sort_oracle(self) -> None:
        g = random_digraph(np.random.default_rng(17), 25, 0.4)
        expected: dict[tuple[str, str], int] = {}
        for node in g.nodes:
            incoming = [(w, o) for (o, d), w in g.edges.items() if d == node]
            incoming.sort(key=lambda wo: (-wo[0], wo[1]))
            for w, o in incoming[:3]:
                expected[(o, node)] = w
        assert topk_in(g, 3).edges == expected

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 9), max_weight=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_every_k_matches_per_node_sort_oracle(
        self, seed: int, n: int, max_weight: int
    ) -> None:
        # Few distinct weights, so most partners tie; every k is cut from
        # the same graph, descending as well as ascending.
        g = random_digraph(np.random.default_rng(seed), n, 0.5, max_weight)
        for k in (*range(n, 0, -1), *range(1, n + 1)):
            for extract, outward in ((topk_out, True), (topk_in, False)):
                expected: dict[tuple[str, str], int] = {}
                for node in g.nodes:
                    ranked = sorted((-w, d if outward else o) for (o, d), w in g.edges.items()
                                    if (o if outward else d) == node)
                    for w, partner in ranked[:k]:
                        expected[(node, partner) if outward else (partner, node)] = -w
                sg = extract(g, k)
                assert sg.edges == expected
                assert (sg.direction, sg.k) == ("out" if outward else "in", k)

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_identity(self, seed: int, k: int) -> None:
        g = graph_from_seed(seed)
        out_deg: dict[str, int] = dict.fromkeys(g.nodes, 0)
        in_deg: dict[str, int] = dict.fromkeys(g.nodes, 0)
        for o, d in g.edges:
            out_deg[o] += 1
            in_deg[d] += 1
        assert topk_out(g, k).edge_count == sum(min(k, v) for v in out_deg.values())
        assert topk_in(g, k).edge_count == sum(min(k, v) for v in in_deg.values())

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_nesting(self, seed: int, k: int) -> None:
        g = graph_from_seed(seed)
        assert set(topk_out(g, k).edges) <= set(topk_out(g, k + 1).edges)
        assert set(topk_in(g, k).edges) <= set(topk_in(g, k + 1).edges)

    @given(seed=st.integers(0, 10_000), factor=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance(self, seed: int, factor: int) -> None:
        g = graph_from_seed(seed)
        scaled = MobilityGraph.build({pair: w * factor for pair, w in g.edges.items()}, g.nodes)
        assert set(topk_out(g, 2).edges) == set(topk_out(scaled, 2).edges)
        assert set(topk_in(g, 2).edges) == set(topk_in(scaled, 2).edges)

    def test_subgraph_validation(self) -> None:
        with pytest.raises(ValueError, match="direction"):
            MobilityGraph(("AA", "BB"), ([], []), [], direction="sideways", k=1)

    @pytest.mark.parametrize("extra", [{"direction": "in"}, {"k": 2}])
    def test_direction_and_k_go_together(self, extra: dict) -> None:
        with pytest.raises(ValueError, match="both"):
            MobilityGraph(("AA", "BB"), ([], []), [], **extra)


class TestIndex:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_index_matches_edges(self, seed: int) -> None:
        g = topk_in(random_digraph(np.random.default_rng(seed), 9, 0.4), 2)
        codes = g.nodes
        src, dst = g.arcs
        assert [(codes[a], codes[b]) for a, b in zip(src, dst)] == sorted(g.edges)
        expected = np.zeros((len(codes), len(codes)))
        for (o, d), w in g.edges.items():
            expected[codes.index(o), codes.index(d)] = w
        assert np.array_equal(g.weights, expected)

    @given(edges=st.dictionaries(
               st.tuples(st.sampled_from(codes_for(7)), st.sampled_from(codes_for(7)))
               .filter(lambda pair: pair[0] != pair[1]),
               st.integers(1, 2**40), max_size=42),
           isolated=st.lists(st.sampled_from(codes_for(9)), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_build_matches_dict_oracle(self, edges: dict, isolated: list) -> None:
        g = MobilityGraph.build(edges, isolated)
        codes, src, dst, weights, dense = dict_arrays(edges, tuple(isolated))
        assert g.nodes == codes
        assert (g.arcs[0].tolist(), g.arcs[1].tolist(), g.arc_weights.tolist()) == (src, dst, weights)
        assert (g.arcs[0].dtype, g.arc_weights.dtype) == (np.intp, np.int64)
        assert np.array_equal(g.weights, dense)
        assert g.edges == edges
        assert list(g.edges) == [(codes[a], codes[b]) for a, b in zip(src, dst)]
        assert g.total_weight == sum(weights)
        derived = [topk_out(g, 2), topk_in(g, 1)]
        if g.edge_count >= 2:
            derived.append(rewire(g, seed=3, swaps_per_edge=2))
        for sg in derived:
            pairs = (sg.arcs[0] * len(codes) + sg.arcs[1]).tolist()
            assert pairs == sorted(set(pairs))

    def test_index_is_built_once_and_read_only(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 3, ("BB", "CC"): 2})
        assert g.weights is g.weights and g.edges is g.edges
        for array in (*g.arcs, g.arc_weights, g.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(TypeError):
            g.edges[("AA", "BB")] = 4
        back = pickle.loads(pickle.dumps(g))  # after the edges view is cached
        assert back == g and not any(array.flags.writeable for array in (*back.arcs, back.arc_weights))


class TestExport:
    def test_dot_contains_edge_statement(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 3})
        dot = export_graph(g, "dot").decode()
        assert '"AA" -> "BB" [weight=3];' in dot
        assert dot.startswith("digraph")

    def test_empty_graph_all_formats(self) -> None:
        g = MobilityGraph.build({}, ())
        assert export_graph(g, "csv").decode().splitlines()[-1] == "origin,destination,count"
        assert export_graph(g, "dot").decode().startswith("digraph")
        assert "<graphml" in export_graph(g, "graphml").decode()

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown export format"):
            export_graph(MobilityGraph.build({}, ()), "yaml")

    def test_dot_name_is_a_dot_string(self) -> None:
        g = MobilityGraph.build({}, ("AA",), label=r'a\"b&c')
        assert export_graph(g, "dot").decode().splitlines()[0] == r'digraph "a\\\"b&c" {'

    def test_csv_round_trip_preserves_isolated_nodes(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 7}, ("AA", "BB", "CC"), label="demo")
        text = export_graph(g, "csv").decode()
        back = parse_flow_matrix(io.StringIO(text), label="demo")
        assert back == g

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_csv_round_trip_random(self, seed: int) -> None:
        g = random_digraph(np.random.default_rng(seed), 20, 0.3)
        back = parse_flow_matrix(io.StringIO(export_graph(g, "csv").decode()))
        assert back.nodes == g.nodes
        assert back.edges == g.edges

    def test_graphml_read_back_by_reference_reader(self) -> None:
        g = random_digraph(np.random.default_rng(11), 117, 0.15)
        parsed = nx.read_graphml(io.BytesIO(export_graph(g, "graphml")))
        assert isinstance(parsed, nx.DiGraph)
        assert set(parsed.nodes) == set(g.nodes)
        edges = {(o, d): data["weight"] for o, d, data in parsed.edges(data=True)}
        assert edges == g.edges

    def test_exports_are_deterministic(self) -> None:
        g = random_digraph(np.random.default_rng(8), 15, 0.4)
        for fmt in ("csv", "dot", "graphml"):
            assert export_graph(g, fmt) == export_graph(g, fmt)
