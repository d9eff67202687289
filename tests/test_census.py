"""Triad census, rewiring null model and motif z-scores."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourflow import (
    CONNECTED_TRIADS,
    TRIAD_NAMES,
    MobilityGraph,
    motif_zscores,
    rewire,
    topk_out,
    triad_census,
    z_percent_diff,
)
from tourflow import census
from tourflow.census import BATCH_MIN_ENSEMBLE, z_percent_diff_csv
from tourflow.seeds import derive_seed

from oracles import (
    ASYMMETRIC_PER_CLASS,
    MUTUAL_PER_CLASS,
    NULL_PER_CLASS,
    brute_force_triad_census,
    circulant_graph,
    codes_for,
    random_digraph,
)
from tourflow.metrics import dyad_census


class TestTriadCensus:
    def test_empty_graph_is_all_003(self) -> None:
        g = MobilityGraph(codes_for(5), {})
        counts = triad_census(g).counts
        assert counts["003"] == 10
        assert sum(counts.values()) == 10

    def test_complete_mutual_triple_is_300(self) -> None:
        codes = codes_for(3)
        edges = {(a, b): 1 for a in codes for b in codes if a != b}
        counts = triad_census(MobilityGraph(codes, edges)).counts
        assert counts["300"] == 1
        assert sum(counts.values()) == 1

    def test_single_arc_in_triple(self) -> None:
        g = MobilityGraph(codes_for(3), {("AA", "AB"): 1})
        assert triad_census(g).counts["012"] == 1

    def test_two_node_graph_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match=">= 3 nodes"):
            triad_census(g)

    def test_transitive_and_cyclic_triples_distinguished(self) -> None:
        codes = codes_for(3)
        cyclic = MobilityGraph(
            codes, {("AA", "AB"): 1, ("AB", "AC"): 1, ("AC", "AA"): 1})
        transitive = MobilityGraph(
            codes, {("AA", "AB"): 1, ("AB", "AC"): 1, ("AA", "AC"): 1})
        assert triad_census(cyclic).counts["030C"] == 1
        assert triad_census(transitive).counts["030T"] == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_classification(self, seed: int) -> None:
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(5, 16))
        g = random_digraph(rng, n, float(rng.uniform(0.05, 0.6)))
        assert triad_census(g).counts == brute_force_triad_census(g)

    @given(seed=st.integers(0, 100_000), n=st.integers(3, 25))
    @settings(max_examples=60, deadline=None)
    def test_total_is_n_choose_3(self, seed: int, n: int) -> None:
        g = random_digraph(np.random.default_rng(seed), n, 0.25)
        census = triad_census(g)
        assert sum(census.counts.values()) == census.total

    @pytest.mark.parametrize("seed", range(5))
    def test_dyad_counts_recoverable_from_triads(self, seed: int) -> None:
        n = 10
        g = random_digraph(np.random.default_rng(700 + seed), n, 0.3)
        counts = triad_census(g).counts
        dyads = dyad_census(g)
        mutual = sum(counts[c] * k for c, k in MUTUAL_PER_CLASS.items())
        asymmetric = sum(counts[c] * k for c, k in ASYMMETRIC_PER_CLASS.items())
        null = sum(counts[c] * k for c, k in NULL_PER_CLASS.items())
        assert mutual == dyads.mutual * (n - 2)
        assert asymmetric == dyads.asymmetric * (n - 2)
        assert null == dyads.null * (n - 2)

    def test_csv_covers_all_sixteen_classes(self) -> None:
        g = random_digraph(np.random.default_rng(0), 8, 0.3)
        lines = triad_census(g).to_csv().splitlines()
        assert lines[0] == "class,count"
        assert [ln.split(",")[0] for ln in lines[1:]] == list(TRIAD_NAMES)


def kernel_census(g: MobilityGraph) -> dict[str, int]:
    """The census kernel's counts for g's arcs, by class name."""
    index = {code: i for i, code in enumerate(g.nodes)}
    src = np.array([index[o] for o, _ in g.edges], dtype=np.intp)
    dst = np.array([index[d] for _, d in g.edges], dtype=np.intp)
    return dict(zip(TRIAD_NAMES, census._census_counts(len(g.nodes), src, dst).tolist()))


class TestCensusKernel:
    @pytest.mark.parametrize("mask", range(64))
    def test_every_labelled_three_node_digraph(self, mask: int) -> None:
        codes = codes_for(3)
        arcs = [(a, b) for a in codes for b in codes if a != b]
        g = MobilityGraph(codes, {arc: 1 for bit, arc in enumerate(arcs) if mask >> bit & 1})
        assert kernel_census(g) == brute_force_triad_census(g)

    def test_complete_mutual_triple(self) -> None:
        codes = codes_for(3)
        g = MobilityGraph(codes, {(a, b): 1 for a in codes for b in codes if a != b})
        assert kernel_census(g) == {name: int(name == "300") for name in TRIAD_NAMES}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_empty_graph(self, n: int) -> None:
        counts = kernel_census(MobilityGraph(codes_for(n), {}))
        assert counts == {name: 0 for name in TRIAD_NAMES} | {"003": n * (n - 1) * (n - 2) // 6}

    @given(seed=st.integers(0, 100_000), n=st.integers(3, 14), isolated=st.integers(0, 4),
           p=st.floats(0.05, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_with_mutual_arcs_and_isolated_nodes(
        self, seed: int, n: int, isolated: int, p: float
    ) -> None:
        # The isolated nodes are interleaved with the others, since the
        # ordering guard depends on node positions.
        rng = np.random.default_rng(seed)
        codes = codes_for(n + isolated)
        linked = sorted(rng.choice(len(codes), size=n, replace=False).tolist())
        mutual = {(codes[a], codes[b]): 1 for a in linked for b in linked
                  if a < b and rng.random() < p / 2}
        single = {(codes[a], codes[b]): 1 for a in linked for b in linked
                  if a != b and rng.random() < p / 2}
        g = MobilityGraph(codes, {**mutual, **{(b, a): 1 for a, b in mutual}, **single})
        assert kernel_census(g) == brute_force_triad_census(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_chunks_add_up(self, seed: int, monkeypatch) -> None:
        g = random_digraph(np.random.default_rng(800 + seed), 12, 0.4)
        whole = kernel_census(g)
        monkeypatch.setattr(census, "_CENSUS_CHUNK", 1)
        assert kernel_census(g) == whole == brute_force_triad_census(g)

    def test_arc_order_does_not_matter(self) -> None:
        g = random_digraph(np.random.default_rng(810), 11, 0.35)
        shuffled = MobilityGraph(g.nodes, dict(reversed(list(g.edges.items()))))
        assert kernel_census(shuffled) == kernel_census(g) == triad_census(g).counts


def degree_sequences(g: MobilityGraph) -> tuple[dict[str, int], dict[str, int]]:
    out_deg = dict.fromkeys(g.nodes, 0)
    in_deg = dict.fromkeys(g.nodes, 0)
    for origin, dest in g.edges:
        out_deg[origin] += 1
        in_deg[dest] += 1
    return out_deg, in_deg


class TestRewire:
    def test_preserves_degree_sequences(self) -> None:
        g = random_digraph(np.random.default_rng(42), 20, 0.2)
        shuffled = rewire(g, seed=1)
        assert degree_sequences(shuffled) == degree_sequences(g)

    def test_no_self_loops_or_duplicates(self) -> None:
        g = random_digraph(np.random.default_rng(43), 15, 0.3)
        shuffled = rewire(g, seed=2)
        assert all(o != d for o, d in shuffled.edges)
        assert len(shuffled.edges) == len(g.edges)

    def test_result_is_binary(self) -> None:
        g = random_digraph(np.random.default_rng(44), 10, 0.4, max_weight=500)
        shuffled = rewire(g, seed=3)
        assert set(shuffled.edges.values()) == {1}

    def test_same_seed_reproduces_exactly(self) -> None:
        g = random_digraph(np.random.default_rng(45), 12, 0.3)
        assert rewire(g, seed=7).edges == rewire(g, seed=7).edges

    def test_different_seeds_usually_differ(self) -> None:
        g = random_digraph(np.random.default_rng(46), 15, 0.3)
        assert rewire(g, seed=1).edges != rewire(g, seed=2).edges

    def test_preserves_node_set_and_label(self) -> None:
        g = random_digraph(np.random.default_rng(47), 8, 0.5)
        labelled = MobilityGraph(g.nodes, g.edges, "sample")
        shuffled = rewire(labelled, seed=4)
        assert shuffled.nodes == g.nodes
        assert shuffled.label == "sample"

    def test_two_disjoint_arcs_toggle_between_matchings(self) -> None:
        # AA->AB, AC->AD has exactly one legal swap, giving AA->AD,
        # AC->AB; repeated swaps toggle between these two matchings.
        g = MobilityGraph(codes_for(4), {("AA", "AB"): 1, ("AC", "AD"): 1})
        shuffled = rewire(g, seed=5, swaps_per_edge=50)
        assert set(shuffled.edges) in (
            {("AA", "AD"), ("AC", "AB")},
            {("AA", "AB"), ("AC", "AD")},
        )

    def test_too_few_edges_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match=">= 2 edges"):
            rewire(g, seed=0)

    def test_invalid_swap_count_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1, ("BB", "CC"): 1})
        with pytest.raises(ValueError, match="swaps_per_edge"):
            rewire(g, seed=0, swaps_per_edge=0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_degree_invariance_property(self, seed: int) -> None:
        g = random_digraph(np.random.default_rng(seed), 10, 0.35)
        if len(g.edges) < 2:
            return
        shuffled = rewire(g, seed=seed, swaps_per_edge=10)
        assert degree_sequences(shuffled) == degree_sequences(g)
        assert all(o != d for o, d in shuffled.edges)


class TestMotifZScores:
    def test_reproducible_bit_identical(self) -> None:
        g = random_digraph(np.random.default_rng(50), 12, 0.3)
        a = motif_zscores(g, ensemble_size=20, seed=9)
        b = motif_zscores(g, ensemble_size=20, seed=9)
        assert a.null_mean == b.null_mean
        assert a.null_std == b.null_std
        assert a.z == b.z

    def test_small_ensemble_rejected(self) -> None:
        g = random_digraph(np.random.default_rng(51), 8, 0.4)
        with pytest.raises(ValueError, match="ensemble_size"):
            motif_zscores(g, ensemble_size=1)

    def test_given_observed_census_is_not_recomputed(self, monkeypatch) -> None:
        g = random_digraph(np.random.default_rng(53), 12, 0.3)
        expected = motif_zscores(g, ensemble_size=20, seed=4)
        observed = triad_census(g)

        def recount(graph):
            raise AssertionError("observed census recomputed")

        monkeypatch.setattr(census, "triad_census", recount)
        assert motif_zscores(g, ensemble_size=20, seed=4, observed=observed) == expected

    def test_observed_census_of_another_graph_rejected(self) -> None:
        g = random_digraph(np.random.default_rng(54), 12, 0.3)
        other = triad_census(random_digraph(np.random.default_rng(54), 11, 0.3))
        with pytest.raises(ValueError, match="observed census covers 11 nodes"):
            motif_zscores(g, ensemble_size=2, observed=other)

    def test_rigid_graph_flags_everything_undefined(self) -> None:
        # A single 3-cycle admits no accepted swap, so the null ensemble
        # is constant and every spread is zero.
        g = MobilityGraph(
            codes_for(3), {("AA", "AB"): 1, ("AB", "AC"): 1, ("AC", "AA"): 1})
        scores = motif_zscores(g, ensemble_size=5, seed=0)
        assert all(z is None for z in scores.z.values())
        csv_rows = scores.to_csv().splitlines()[1:]
        assert all(row.endswith(",undefined") for row in csv_rows)

    def test_relevance_needs_z_and_count(self) -> None:
        g = random_digraph(np.random.default_rng(52), 14, 0.3)
        scores = motif_zscores(g, ensemble_size=30, seed=3)
        flags = scores.relevant()
        for name in scores.classes:
            z = scores.z[name]
            expected = z is not None and z >= 2.0 and scores.real[name] >= 4
            assert flags[name] == expected

    def test_csv_layout(self) -> None:
        g = random_digraph(np.random.default_rng(53), 10, 0.4)
        scores = motif_zscores(g, ensemble_size=10, seed=1)
        lines = scores.to_csv().splitlines()
        assert lines[0] == "class,real,mean,std,z,flag"
        assert [ln.split(",")[0] for ln in lines[1:]] == list(CONNECTED_TRIADS)

    @pytest.mark.parametrize("size", [12, BATCH_MIN_ENSEMBLE + 4])
    def test_null_means_match_manual_ensemble(self, size: int) -> None:
        g = random_digraph(np.random.default_rng(54), 10, 0.35)
        scores = motif_zscores(g, ensemble_size=size, seed=5, swaps_per_edge=10)
        samples = np.empty((size, len(CONNECTED_TRIADS)), dtype=np.float64)
        for i in range(size):
            counts = triad_census(rewire(g, derive_seed(5, i), 10)).counts
            samples[i] = [counts[name] for name in CONNECTED_TRIADS]
        means = samples.mean(axis=0)
        stds = samples.std(axis=0)
        for pos, name in enumerate(CONNECTED_TRIADS):
            assert scores.null_mean[name] == float(means[pos])
            assert scores.null_std[name] == float(stds[pos])


def hub_heavy_digraph(seed: int, n: int = 18) -> MobilityGraph:
    """Every node links to the three hubs AA..AC with p 0.9, elsewhere with p 0.1."""
    rng = np.random.default_rng(seed)
    codes = codes_for(n)
    edges = {
        (codes[a], codes[b]): 1
        for a in range(n) for b in range(n)
        if a != b and rng.random() < (0.9 if b < 3 else 0.1)
    }
    return MobilityGraph(codes, edges)


def ring_lattice_top2(n: int = 12) -> MobilityGraph:
    """Top-2 Out of the circulant flows w(i->j) = n - ((j - i) mod n)."""
    codes = codes_for(n)
    edges = {(codes[i], codes[j]): n - (j - i) % n
             for i in range(n) for j in range(n) if i != j}
    return topk_out(MobilityGraph(codes, edges), 2)


SWAP_GRAPHS = {
    "hub-heavy": hub_heavy_digraph(60),
    "ring-lattice-top2": ring_lattice_top2(),
    # No swap is ever accepted: every proposal closes a self-loop or
    # duplicates an arc.
    "3-cycle": MobilityGraph(
        codes_for(3), {("AA", "AB"): 1, ("AB", "AC"): 1, ("AC", "AA"): 1}),
    "2-edge": MobilityGraph(codes_for(4), {("AA", "AB"): 1, ("AC", "AD"): 1}),
}


def sample_arcs(g: MobilityGraph, samples) -> list[dict[tuple[str, str], int]]:
    """The arcs of each null sample, given by the destinations of its slots."""
    src, _ = g.arcs
    return [census._binary_graph(g, src, dst.tolist()).edges for dst in samples]


def rewired_counts(g: MobilityGraph, seed: int, size: int, swaps: int) -> list[list[int]]:
    """The CONNECTED_TRIADS counts of rewire's samples 0 .. size-1."""
    counts = (triad_census(rewire(g, derive_seed(seed, i), swaps)).counts for i in range(size))
    return [[sample[name] for name in CONNECTED_TRIADS] for sample in counts]


@pytest.fixture
def scalar_calls(monkeypatch) -> list:
    """The argument tuples of every call the ensemble sampler makes to rewire."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rewire(*args, **kwargs)

    monkeypatch.setattr(census, "rewire", counted)
    return calls


def block_budget(g: MobilityGraph, chains: int) -> int:
    """The smallest _BLOCK_BYTES under which one block of g holds ``chains`` chains."""
    return chains * census._chain_bytes(len(g.nodes), len(g.edges))


@pytest.fixture
def chain_samples(one_cpu, monkeypatch) -> list[np.ndarray]:
    """The rows of every _rewire_chains call, in call order; blocks run in this process."""
    rows = []
    kernel = census._rewire_chains

    def recorded(*args):
        samples = kernel(*args)
        rows.extend(samples)
        return samples

    monkeypatch.setattr(census, "_rewire_chains", recorded)
    return rows


@pytest.fixture
def chain_seeds(monkeypatch) -> list[list[int]]:
    """The seeds of every _rewire_chains call, one list per block, in call order."""
    calls = []
    kernel = census._rewire_chains

    def recorded(n, src, dst0, seeds, swaps_per_edge):
        calls.append(seeds)
        return kernel(n, src, dst0, seeds, swaps_per_edge)

    monkeypatch.setattr(census, "_rewire_chains", recorded)
    return calls


class TestBatchedEnsemble:
    @pytest.mark.parametrize("size", [BATCH_MIN_ENSEMBLE - 1, BATCH_MIN_ENSEMBLE, 129])
    @pytest.mark.parametrize("name", list(SWAP_GRAPHS))
    def test_every_sample_matches_rewire(
        self, name: str, size: int, scalar_calls: list, chain_samples: list
    ) -> None:
        g = SWAP_GRAPHS[name]
        counts = census._null_counts(g, size, 11, 3)
        batched = size >= BATCH_MIN_ENSEMBLE
        # Batched ensembles draw sample 0 with rewire too, as a cross-check.
        assert len(scalar_calls) == (1 if batched else size)
        expected = [rewire(g, derive_seed(11, i), 3).edges for i in range(size)]
        assert sample_arcs(g, chain_samples) == (expected if batched else [])
        assert counts.tolist() == rewired_counts(g, 11, size, 3)

    def test_divergence_from_rewire_stops_the_run(self, monkeypatch) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        monkeypatch.setattr(
            census, "rewire", lambda graph, seed, swaps: rewire(graph, seed + 1, swaps))
        with pytest.raises(RuntimeError, match="diverged"):
            census._null_counts(g, BATCH_MIN_ENSEMBLE, 14, 2)

    def test_rewire_and_kernel_share_one_draw_rule(
        self, chain_samples: list, monkeypatch
    ) -> None:
        # Under a generator whose int32 draws are shifted by one and whose
        # int64 draws are numpy's own, rewire and the kernel still take the
        # same slots: neither draws any other way.
        default_rng = np.random.default_rng

        class ShiftedInt32:
            def __init__(self, seed: int) -> None:
                self.rng = default_rng(seed)

            def integers(self, low, high, size=None, dtype=np.int64):
                draws = self.rng.integers(low, high, size=size, dtype=dtype)
                return (draws + 1) % high if np.dtype(dtype) == np.int32 else draws

        g = SWAP_GRAPHS["hub-heavy"]
        unshifted = rewire(g, derive_seed(19, 0), 3).edges
        monkeypatch.setattr(np.random, "default_rng", ShiftedInt32)
        census._null_counts(g, BATCH_MIN_ENSEMBLE, 19, 3)
        expected = [rewire(g, derive_seed(19, i), 3).edges for i in range(BATCH_MIN_ENSEMBLE)]
        assert expected[0] != unshifted
        assert sample_arcs(g, chain_samples) == expected

    def test_graphs_too_large_for_a_block_fall_back_to_rewire(
        self, scalar_calls: list, monkeypatch
    ) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, BATCH_MIN_ENSEMBLE) - 1)
        size = 2 * BATCH_MIN_ENSEMBLE
        counts = census._null_counts(g, size, 13, 2)
        assert scalar_calls == [(g, derive_seed(13, i), 2) for i in range(size)]
        assert counts.tolist() == rewired_counts(g, 13, size, 2)

    def test_blocks_split_below_the_floor_fall_back_to_rewire(
        self, scalar_calls: list, chain_seeds: list
    ) -> None:
        # A block of a 385-node graph with 3 arcs a node holds 16 chains,
        # but 100 chains split evenly into 7 blocks of 14 or 15.
        n = 385
        codes = codes_for(n)
        g = MobilityGraph(codes, {(codes[i], codes[(i + step) % n]): 1
                                  for i in range(n) for step in (1, 2, 3)})
        assert census._BLOCK_BYTES // census._chain_bytes(n, len(g.edges)) == BATCH_MIN_ENSEMBLE
        counts = census._null_counts(g, 100, 18, 1)
        assert chain_seeds == []
        assert scalar_calls == [(g, derive_seed(18, i), 1) for i in range(100)]
        assert counts.tolist() == rewired_counts(g, 18, 100, 1)

    def test_batched_and_fallback_ensembles_give_the_same_scores(
        self, scalar_calls: list, monkeypatch
    ) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        size = BATCH_MIN_ENSEMBLE + 5
        batched = motif_zscores(g, ensemble_size=size, seed=15, swaps_per_edge=4)
        assert len(scalar_calls) == 1
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, BATCH_MIN_ENSEMBLE) - 1)
        fallback = motif_zscores(g, ensemble_size=size, seed=15, swaps_per_edge=4)
        assert len(scalar_calls) == 1 + size
        assert fallback == batched

    def test_chains_match_rewire_over_several_windows(self) -> None:
        g = hub_heavy_digraph(61)
        seeds = [derive_seed(12, i) for i in range(5)]
        swaps = 3 * census._DRAW_WINDOW // len(g.edges) + 1
        # Three full draw windows of several step windows each, then a
        # last draw window that ends in a part of a step window.
        steps = swaps * len(g.edges)
        assert steps // census._DRAW_WINDOW == 3
        assert census._DRAW_WINDOW // census._STEP_WINDOW > 1
        assert steps % census._DRAW_WINDOW % census._STEP_WINDOW > 0
        batched = sample_arcs(g, census._rewire_chains(len(g.nodes), *g.arcs, seeds, swaps))
        assert batched == [rewire(g, seed, swaps).edges for seed in seeds]

    def test_kernel_rejects_what_rewire_rejects(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match=">= 2 edges"):
            census._rewire_chains(2, *g.arcs, [0, 1], 1)
        g = SWAP_GRAPHS["2-edge"]
        with pytest.raises(ValueError, match="swaps_per_edge must be >= 1"):
            census._rewire_chains(len(g.nodes), *g.arcs, [0, 1], 0)

    @pytest.mark.parametrize(
        "window", [1, 7, 128, census._DRAW_WINDOW, 1000, 2 * census._DRAW_WINDOW])
    @pytest.mark.parametrize("edge_count", [2, 3, 117, 351, 70_000])
    def test_windowed_draws_concatenate_to_one_shot(self, edge_count: int, window: int) -> None:
        # Swap chains draw their slots window by window as int32 (see
        # _swap_draws); rewire once drew them as one-shot int64 values.
        # The two streams are equal, because the bit generator keeps its
        # spare 32-bit half-word and bounds ranges below 2**32 alike for
        # both types, so bundles recorded with one-shot draws keep their
        # bytes.
        total = 2500
        for seed in range(20):
            one_shot = np.random.default_rng(seed).integers(0, edge_count, size=total)
            for dtype in (np.int64, np.int32):
                rng = np.random.default_rng(seed)
                windowed = [rng.integers(0, edge_count, size=min(window, total - start), dtype=dtype)
                            for start in range(0, total, window)]
                assert np.array_equal(np.concatenate(windowed), one_shot)

    def test_paper_scale_ensemble_is_one_block(self, chain_seeds: list) -> None:
        # A 117-node Top-3 graph (351 arcs) and 100 chains.
        g = topk_out(circulant_graph(), 3)
        assert (len(g.nodes), len(g.edges)) == (117, 351)
        census._null_counts(g, 100, 16, 1)
        assert chain_seeds == [[derive_seed(16, i) for i in range(100)]]

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_budgets_of_several_blocks_give_the_same_counts(
        self, blocks: int, chain_seeds: list, monkeypatch
    ) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        size = 4 * BATCH_MIN_ENSEMBLE
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, size // blocks))
        counts = census._null_counts(g, size, 17, 3)
        bounds = [size * b // blocks for b in range(blocks + 1)]
        assert chain_seeds == [
            [derive_seed(17, i) for i in range(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        assert counts.tolist() == rewired_counts(g, 17, size, 3)


class TestPooledEnsemble:
    """Multi-block ensembles run their blocks in this process, whatever the affinity mask.

    ``tourflow analyze`` runs Top-k units in parallel lanes instead; its
    tests (``tests/test_cli.py::TestLanes``) check forked lanes.
    """

    graph = SWAP_GRAPHS["hub-heavy"]
    size = 4 * BATCH_MIN_ENSEMBLE

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch) -> None:
        """Four blocks of BATCH_MIN_ENSEMBLE chains, by the block byte budget."""
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(self.graph, BATCH_MIN_ENSEMBLE))

    def scores(self):
        return motif_zscores(self.graph, ensemble_size=self.size, seed=21, swaps_per_edge=5)

    def test_multi_block_ensemble_starts_no_process(self, two_cpus: list) -> None:
        counts = census._null_counts(self.graph, self.size, 21, 5)
        assert two_cpus == []
        assert counts.tolist() == rewired_counts(self.graph, 21, self.size, 5)

    @pytest.mark.parametrize("size", [2, BATCH_MIN_ENSEMBLE - 1, BATCH_MIN_ENSEMBLE])
    def test_ensembles_of_one_block_start_no_process(self, size: int, two_cpus: list) -> None:
        # Below BATCH_MIN_ENSEMBLE rewire runs per sample; at it, one block.
        motif_zscores(self.graph, ensemble_size=size, seed=21, swaps_per_edge=5)
        assert two_cpus == []

    def test_one_cpu_starts_no_process(self, one_cpu, scalar_calls: list) -> None:
        self.scores()
        assert len(scalar_calls) == 1
        assert multiprocessing.active_children() == []


class TestZPercentDiff:
    @staticmethod
    def scores_with(z: dict[str, float | None]) -> "object":
        from tourflow.census import MotifZScores

        filled = {name: z.get(name) for name in CONNECTED_TRIADS}
        zeros = dict.fromkeys(CONNECTED_TRIADS, 0)
        zerosf = dict.fromkeys(CONNECTED_TRIADS, 0.0)
        return MotifZScores(CONNECTED_TRIADS, zeros, zerosf, zerosf, filled)

    def test_identity_is_zero(self) -> None:
        a = self.scores_with({"030T": 4.2})
        assert z_percent_diff(a, a)["030T"] == 0.0

    def test_doubling_is_plus_hundred(self) -> None:
        a = self.scores_with({"030T": 8.4})
        b = self.scores_with({"030T": 4.2})
        assert z_percent_diff(a, b)["030T"] == pytest.approx(100.0)

    def test_negative_reference_uses_absolute_value(self) -> None:
        a = self.scores_with({"030T": -1.0})
        b = self.scores_with({"030T": -2.0})
        assert z_percent_diff(a, b)["030T"] == pytest.approx(50.0)

    def test_zero_or_undefined_reference_is_none(self) -> None:
        a = self.scores_with({"030T": 1.0})
        zero = self.scores_with({"030T": 0.0})
        undefined = self.scores_with({})
        assert z_percent_diff(a, zero)["030T"] is None
        assert z_percent_diff(a, undefined)["030T"] is None
        assert z_percent_diff(undefined, a)["030T"] is None

    def test_known_arithmetic(self) -> None:
        a = self.scores_with({"030T": 7.4})
        b = self.scores_with({"030T": 4.21})
        assert z_percent_diff(a, b)["030T"] == pytest.approx(75.77, abs=0.005)

    def test_csv_marks_undefined(self) -> None:
        a = self.scores_with({"030T": 1.0})
        diff = z_percent_diff(a, self.scores_with({}))
        lines = z_percent_diff_csv(diff).splitlines()
        assert lines[0] == "class,percent_diff,flag"
        row = next(ln for ln in lines if ln.startswith("030T,"))
        assert row == "030T,,undefined"
