"""Triad census, rewiring null model and motif z-scores."""

from __future__ import annotations

import hashlib
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
    topk_in,
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
    swap_class,
)
from tourflow.metrics import dyad_census, structural_report


class TestTriadCensus:
    def test_empty_graph_is_all_003(self) -> None:
        g = MobilityGraph.build({}, codes_for(5))
        counts = triad_census(g).counts
        assert counts["003"] == 10
        assert sum(counts.values()) == 10

    def test_complete_mutual_triple_is_300(self) -> None:
        codes = codes_for(3)
        edges = {(a, b): 1 for a in codes for b in codes if a != b}
        counts = triad_census(MobilityGraph.build(edges, codes)).counts
        assert counts["300"] == 1
        assert sum(counts.values()) == 1

    def test_single_arc_in_triple(self) -> None:
        g = MobilityGraph.build({("AA", "AB"): 1}, codes_for(3))
        assert triad_census(g).counts["012"] == 1

    def test_two_node_graph_rejected(self) -> None:
        g = MobilityGraph.build({("AA", "BB"): 1})
        with pytest.raises(ValueError, match=">= 3 nodes"):
            triad_census(g)

    def test_transitive_and_cyclic_triples_distinguished(self) -> None:
        codes = codes_for(3)
        cyclic = MobilityGraph.build(
            {("AA", "AB"): 1, ("AB", "AC"): 1, ("AC", "AA"): 1}, codes)
        transitive = MobilityGraph.build(
            {("AA", "AB"): 1, ("AB", "AC"): 1, ("AA", "AC"): 1}, codes)
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


class TestCensusCache:
    def test_counts_are_read_only_and_match_the_census(self) -> None:
        g = random_digraph(np.random.default_rng(55), 12, 0.3)
        assert g.triad_counts is g.triad_counts
        assert dict(zip(TRIAD_NAMES, g.triad_counts.tolist())) == triad_census(g).counts
        with pytest.raises(ValueError, match="read-only"):
            g.triad_counts[0] = 0

    def test_each_graph_is_counted_once(self, monkeypatch) -> None:
        calls = []
        kernel = census._census_counts

        def counted(n, src, dst):
            calls.append(n)
            return kernel(n, src, dst)

        monkeypatch.setattr(census, "_census_counts", counted)
        g = topk_out(random_digraph(np.random.default_rng(56), 12, 0.4), 3)
        structural_report(g)
        assert triad_census(g) == triad_census(g)
        assert calls == [12]
        # Only the null samples are counted: the real counts are cached.
        motif_zscores(g, ensemble_size=20, seed=4)
        assert len(calls) == 1 + 20


class TestCensusKernel:
    @pytest.mark.parametrize("mask", range(64))
    def test_every_labelled_three_node_digraph(self, mask: int) -> None:
        codes = codes_for(3)
        arcs = [(a, b) for a in codes for b in codes if a != b]
        g = MobilityGraph.build({arc: 1 for bit, arc in enumerate(arcs) if mask >> bit & 1}, codes)
        assert kernel_census(g) == brute_force_triad_census(g)

    def test_complete_mutual_triple(self) -> None:
        codes = codes_for(3)
        g = MobilityGraph.build({(a, b): 1 for a in codes for b in codes if a != b}, codes)
        assert kernel_census(g) == {name: int(name == "300") for name in TRIAD_NAMES}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_empty_graph(self, n: int) -> None:
        counts = kernel_census(MobilityGraph.build({}, codes_for(n)))
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
        g = MobilityGraph.build({**mutual, **{(b, a): 1 for a, b in mutual}, **single}, codes)
        assert kernel_census(g) == brute_force_triad_census(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_chunks_add_up(self, seed: int, monkeypatch) -> None:
        g = random_digraph(np.random.default_rng(800 + seed), 12, 0.4)
        whole = kernel_census(g)
        monkeypatch.setattr(census, "_CENSUS_CHUNK", 1)
        assert kernel_census(g) == whole == brute_force_triad_census(g)

    def test_arc_order_does_not_matter(self) -> None:
        g = random_digraph(np.random.default_rng(810), 11, 0.35)
        shuffled = MobilityGraph.build(dict(reversed(list(g.edges.items()))), g.nodes)
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
        labelled = MobilityGraph.build(g.edges, g.nodes, "sample")
        shuffled = rewire(labelled, seed=4)
        assert shuffled.nodes == g.nodes
        assert shuffled.label == "sample"

    def test_two_disjoint_arcs_toggle_between_matchings(self) -> None:
        # AA->AB, AC->AD has exactly one legal swap, giving AA->AD,
        # AC->AB; repeated swaps toggle between these two matchings.
        g = MobilityGraph.build({("AA", "AB"): 1, ("AC", "AD"): 1}, codes_for(4))
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

    @pytest.mark.parametrize("n, sequences, split", [(3, 1, 1), (4, 794, 16)])
    def test_samples_cover_exactly_their_swap_class(
        self, n: int, sequences: int, split: int
    ) -> None:
        # Double-edge swaps do not connect every digraph with a given
        # degree sequence (none reverses a directed 3-cycle), so some
        # sequences split into several swap classes.  Started in a class,
        # rewire must reach all of it and nothing else.
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        families: dict[tuple, set] = {}
        for mask in range(1 << len(pairs)):
            arcs = frozenset(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
            degrees = tuple(sum(arc[end] == v for arc in arcs) for end in (0, 1) for v in range(n))
            families.setdefault(degrees, set()).add(arcs)
        # A sequence with two realisations has at least 2 arcs.
        families = {key: family for key, family in families.items() if len(family) >= 2}
        codes = codes_for(n)
        position = {code: i for i, code in enumerate(codes)}
        split_sequences = 0
        for family in families.values():
            remaining = set(family)
            classes = 0
            while remaining:
                classes += 1
                start = min(remaining, key=sorted)
                members = swap_class(start)
                remaining -= members
                g = MobilityGraph.build({(codes[a], codes[b]): 1 for a, b in start}, codes)
                support = {
                    frozenset((position[o], position[d])
                              for o, d in rewire(g, derive_seed(7, i), swaps_per_edge=10).edges)
                    for i in range(64)
                }
                assert support == members
            split_sequences += classes > 1
        assert len(families) == sequences
        assert split_sequences == split

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

    @pytest.mark.parametrize("shape", [(5, 13), (1000, 16)], ids=["few-samples", "full-census"])
    def test_null_of_the_wrong_shape_rejected(self, shape: tuple[int, int]) -> None:
        g = random_digraph(np.random.default_rng(51), 8, 0.4)
        with pytest.raises(ValueError, match=rf"1000 samples of the 13 .* shape \({shape[0]}, "):
            motif_zscores(g, ensemble_size=1000, null=np.zeros(shape, dtype=np.int64))

    def test_rigid_graph_flags_everything_undefined(self) -> None:
        # A single 3-cycle admits no accepted swap, so the null ensemble
        # is constant and every spread is zero.
        g = MobilityGraph.build(
            {("AA", "AB"): 1, ("AB", "AC"): 1, ("AC", "AA"): 1}, codes_for(3))
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
    return MobilityGraph.build(edges, codes)


def ring_lattice_top2(n: int = 12) -> MobilityGraph:
    """Top-2 Out of the circulant flows w(i->j) = n - ((j - i) mod n)."""
    codes = codes_for(n)
    edges = {(codes[i], codes[j]): n - (j - i) % n
             for i in range(n) for j in range(n) if i != j}
    return topk_out(MobilityGraph.build(edges, codes), 2)


SWAP_GRAPHS = {
    "hub-heavy": hub_heavy_digraph(60),
    "ring-lattice-top2": ring_lattice_top2(),
    # No swap is ever accepted: every proposal closes a self-loop or
    # duplicates an arc.
    "3-cycle": MobilityGraph.build(
        {("AA", "AB"): 1, ("AB", "AC"): 1, ("AC", "AA"): 1}, codes_for(3)),
    "2-edge": MobilityGraph.build({("AA", "AB"): 1, ("AC", "AD"): 1}, codes_for(4)),
}


def sample_arcs(g: MobilityGraph, samples) -> list[dict[tuple[str, str], int]]:
    """The arcs of each null sample, given by the destinations of its slots."""
    codes, (src, _) = g.nodes, g.arcs
    return [{(codes[a], codes[b]): 1 for a, b in zip(src.tolist(), dst.tolist())}
            for dst in samples]


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
        counts = census._null_counts([g], size, [11], 3)[0]
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
            census._null_counts([g], BATCH_MIN_ENSEMBLE, [14], 2)

    def test_rewire_and_kernel_share_one_draw_rule(
        self, chain_samples: list, monkeypatch
    ) -> None:
        # With every window of the owned stream shifted by one slot,
        # rewire and the kernel still take the same slots: neither draws
        # any other way.
        draws = census._swap_draws

        def shifted(seeds, edge_count, steps):
            for window in draws(seeds, edge_count, steps):
                yield (window + 1) % edge_count

        g = SWAP_GRAPHS["hub-heavy"]
        unshifted = rewire(g, derive_seed(19, 0), 3).edges
        monkeypatch.setattr(census, "_swap_draws", shifted)
        census._null_counts([g], BATCH_MIN_ENSEMBLE, [19], 3)
        expected = [rewire(g, derive_seed(19, i), 3).edges for i in range(BATCH_MIN_ENSEMBLE)]
        assert expected[0] != unshifted
        assert sample_arcs(g, chain_samples) == expected

    def test_graphs_too_large_for_a_block_fall_back_to_rewire(
        self, scalar_calls: list, monkeypatch
    ) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, BATCH_MIN_ENSEMBLE) - 1)
        size = 2 * BATCH_MIN_ENSEMBLE
        counts = census._null_counts([g], size, [13], 2)[0]
        assert scalar_calls == [(g, derive_seed(13, i), 2) for i in range(size)]
        assert counts.tolist() == rewired_counts(g, 13, size, 2)

    def test_blocks_split_below_the_floor_fall_back_to_rewire(
        self, scalar_calls: list, chain_seeds: list
    ) -> None:
        # A block of a 459-node graph with 3 arcs a node holds 16 chains,
        # but 100 chains split evenly into 7 blocks of 14 or 15.
        n = 459
        codes = codes_for(n)
        g = MobilityGraph.build({(codes[i], codes[(i + step) % n]): 1
                                 for i in range(n) for step in (1, 2, 3)}, codes)
        assert census._BLOCK_BYTES // census._chain_bytes(n, len(g.edges)) == BATCH_MIN_ENSEMBLE
        counts = census._null_counts([g], 100, [18], 1)[0]
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
        census._null_counts([g], 100, [16], 1)
        assert chain_seeds == [[derive_seed(16, i) for i in range(100)]]

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_budgets_of_several_blocks_give_the_same_counts(
        self, blocks: int, chain_seeds: list, monkeypatch
    ) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        size = 4 * BATCH_MIN_ENSEMBLE
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, size // blocks))
        counts = census._null_counts([g], size, [17], 3)[0]
        bounds = [size * b // blocks for b in range(blocks + 1)]
        assert chain_seeds == [
            [derive_seed(17, i) for i in range(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        assert counts.tolist() == rewired_counts(g, 17, size, 3)


def ring_lattice(n: int, steps: tuple[int, ...]) -> MobilityGraph:
    """Node i links to node i + s for each step s, on n nodes."""
    codes = codes_for(n)
    return MobilityGraph.build({(codes[i], codes[(i + step) % n]): 1
                                for i in range(n) for step in steps}, codes)


def joint_pairs() -> dict[str, tuple[MobilityGraph, MobilityGraph]]:
    """Two graphs on the same nodes with as many arcs, as two datasets' Top-k subgraphs are."""
    a, b = (random_digraph(np.random.default_rng(seed), 14, 1.0) for seed in (30, 31))
    pairs = {f"top-{k} {direction}": (topk(a, k), topk(b, k))
             for direction, topk in (("out", topk_out), ("in", topk_in)) for k in (1, 3)}
    pairs["rings"] = ring_lattice(15, (1, 2, 3)), ring_lattice(15, (1, 4, 6))
    return pairs


JOINT_PAIRS = joint_pairs()


class TestJointBlock:
    """Graphs of one shape share a lockstep block; each keeps its own samples."""

    @pytest.mark.parametrize("name", list(JOINT_PAIRS))
    def test_every_row_matches_rewire_of_its_graph(self, name: str) -> None:
        g, h = JOINT_PAIRS[name]
        assert (len(g.nodes), g.edge_count) == (len(h.nodes), h.edge_count)
        assert g.arcs[1].tolist() != h.arcs[1].tolist()
        seeds = [derive_seed(23, i) for i in range(6)]
        rows = census._rewire_chains(
            len(g.nodes), np.array([g.arcs[0], h.arcs[0]]), np.array([g.arcs[1], h.arcs[1]]),
            seeds, 7)
        expected = [rewire(graph, seed, 7).edges
                    for graph, part in ((g, seeds[:3]), (h, seeds[3:])) for seed in part]
        assert sample_arcs(g, rows[:3]) + sample_arcs(h, rows[3:]) == expected

    @pytest.mark.parametrize("name", ["top-3 out", "rings"])
    def test_one_block_gives_each_graph_its_own_ensemble(
        self, name: str, scalar_calls: list, chain_seeds: list
    ) -> None:
        g, h = JOINT_PAIRS[name]
        size = BATCH_MIN_ENSEMBLE
        counts = census._null_counts([g, h], size, [24, 25], 3)
        assert chain_seeds == [[derive_seed(seed, i) for seed in (24, 25) for i in range(size)]]
        # Each graph keeps its own sample-0 cross-check.
        assert scalar_calls == [(g, derive_seed(24, 0), 3), (h, derive_seed(25, 0), 3)]
        assert counts.tolist() == [rewired_counts(g, 24, size, 3), rewired_counts(h, 25, size, 3)]

    def test_blocks_hold_an_even_share_of_each_graph(
        self, chain_seeds: list, monkeypatch
    ) -> None:
        g, h = JOINT_PAIRS["top-1 in"]
        size = 4 * BATCH_MIN_ENSEMBLE
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, size))
        counts = census._null_counts([g, h], size, [26, 27], 2)
        half = size // 2
        assert chain_seeds == [[derive_seed(seed, i) for seed in (26, 27) for i in range(lo, hi)]
                               for lo, hi in ((0, half), (half, size))]
        assert counts.tolist() == [rewired_counts(g, 26, size, 2), rewired_counts(h, 27, size, 2)]

    def test_a_joint_block_below_the_floor_runs_each_graph_alone(
        self, scalar_calls: list, chain_seeds: list, monkeypatch
    ) -> None:
        # One block holds 31 chains: 15 of each graph jointly, 16 alone.
        g, h = JOINT_PAIRS["rings"]
        size = BATCH_MIN_ENSEMBLE
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, 2 * size) - 1)
        counts = census._null_counts([g, h], size, [28, 29], 3)
        assert chain_seeds == [[derive_seed(seed, i) for i in range(size)] for seed in (28, 29)]
        assert len(scalar_calls) == 2
        assert counts.tolist() == [rewired_counts(g, 28, size, 3), rewired_counts(h, 29, size, 3)]


def stream_windows(seeds: list[int], edge_count: int, steps: int) -> list[np.ndarray]:
    """Copies of the owned stream's windows (each is overwritten by the next)."""
    return [window.copy() for window in census._swap_draws(seeds, edge_count, steps)]


def walked_windows(seed: int, edge_count: int, steps: int) -> list[tuple[bool, bool]]:
    """Per draw window of one chain: (enters holding a spare half-word, meets a rejected draw).

    A scalar walk of the half-words of ``PCG64(seed)``, low half first,
    bounded by Lemire's method in Python integers.
    """
    bitgen = np.random.PCG64(seed)
    threshold = (1 << 32) % edge_count
    spent = 0
    walk = []
    for start in range(0, steps, census._DRAW_WINDOW):
        carried, met = spent % 2 == 1, False
        for _ in range(2 * min(census._DRAW_WINDOW, steps - start)):
            while True:
                if spent % 2 == 0:
                    word = int(bitgen.random_raw())
                half = word >> 32 if spent % 2 else word & 0xFFFFFFFF
                spent += 1
                if half * edge_count & 0xFFFFFFFF >= threshold:
                    break
                met = True
        walk.append((carried, met))
    return walk


def golden_graph() -> MobilityGraph:
    """20 nodes, 87 arcs: every node links to the hubs AA..AC, and a to b where 3a + 5b = 0 mod 11.

    Built by arithmetic alone, so no change to numpy's generators moves it.
    """
    codes = codes_for(20)
    return MobilityGraph.build({(codes[a], codes[b]): 1 for a in range(20) for b in range(20)
                                if a != b and (b < 3 or (3 * a + 5 * b) % 11 == 0)}, codes)


def sha256_of(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.asarray(array).astype("<i8").tobytes())
    return digest.hexdigest()


class TestSwapStream:
    """The owned swap stream: Lemire's bounded draw over PCG64 words."""

    @pytest.mark.parametrize("window", [1, 7, census._DRAW_WINDOW])
    @pytest.mark.parametrize(
        "edge_count", [2, 3, 117, 351, 70_000, 456_300, 3 << 29, 2**31 - 1])
    def test_windows_equal_generator_integers(
        self, edge_count: int, window: int, monkeypatch
    ) -> None:
        # Each window equals the next int32 Generator.integers call on
        # default_rng(seed).  numpy does not freeze the streams of
        # Generator methods, so a later numpy may fail this oracle while
        # bundles keep their bytes: they rest on PCG64 and SeedSequence.
        # 2500 steps end in a short window of 7 and of 512 steps.  At
        # 3 << 29 a quarter of the draws are rejected, so half-words left
        # over cross window boundaries.
        monkeypatch.setattr(census, "_DRAW_WINDOW", window)
        seeds = list(range(20))
        windows = stream_windows(seeds, edge_count, 2500)
        assert sum(block.shape[1] for block in windows) == 2500
        for chain, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            for block in windows:
                expected = rng.integers(0, edge_count, size=(block.shape[1], 2), dtype=np.int32)
                assert np.array_equal(block[chain], expected)

    def test_lemire_products_do_not_wrap(self) -> None:
        # The slot is the high half of a 64-bit product.  A product made
        # in uint32 (numpy 1.x value-based casting, or a Python int under
        # NEP 50) wraps, and every slot then reads 0.
        halves = np.array([0, 1, 5, 1 << 31, 0xFFFFFFFE, 0xFFFFFFFF], dtype=np.uint32)
        for edge_count in (2, 3, 117, 351, 3 << 29):
            threshold = (1 << 32) % edge_count
            slots, rejected = census._lemire(halves, edge_count, threshold)
            products = [h * edge_count for h in halves.tolist()]
            assert slots.tolist() == [p >> 32 for p in products]
            assert rejected.tolist() == [p & 0xFFFFFFFF < threshold for p in products]

    def test_mixed_block_equals_chains_drawn_alone(self, monkeypatch) -> None:
        # At this edge count 2**32 % E is 2,140,000, so about 40% of
        # 512-step windows hold a rejected draw: some chains take the
        # vectorised pass and others take _bounded_draws, with and
        # without a half-word left from the last window, in both
        # reduction groups (32 and 8 of the 40 chains).  _bounded_draws
        # runs for just the chain-windows that meet a rejection, as a
        # scalar walk of each chain's half-words counts them.
        edge_count = 2**31 - 1_070_000
        seeds = [derive_seed(21, i) for i in range(40)]
        steps = 5 * census._DRAW_WINDOW + 100
        assert len(seeds) > census._DRAW_CHAINS
        alone = [stream_windows([seed], edge_count, steps) for seed in seeds]
        pending = []
        bounded = census._bounded_draws

        def recorded(bitgen, halves, count, edge_count, threshold):
            pending.append(len(halves) - count)
            return bounded(bitgen, halves, count, edge_count, threshold)

        monkeypatch.setattr(census, "_bounded_draws", recorded)
        block = stream_windows(seeds, edge_count, steps)
        for chain, windows in enumerate(alone):
            assert all(np.array_equal(a[0], b[chain]) for a, b in zip(windows, block, strict=True))
        walks = [walked_windows(seed, edge_count, steps) for seed in seeds]
        expected = sorted(int(carried) for walk in walks for carried, met in walk if met)
        assert sorted(pending) == expected and 0 in expected and 1 in expected
        assert any(carried and not met for walk in walks for carried, met in walk)

    def test_golden_digests(self) -> None:
        # Recorded when the package still drew its swaps with
        # Generator.integers: a batched ensemble (20 chains, 1044 steps
        # in three draw windows), its kernel rows and four rewire samples.
        g = golden_graph()
        assert 20 >= BATCH_MIN_ENSEMBLE and len(g.edges) * 12 > 2 * census._DRAW_WINDOW
        counts = census._null_counts([g], 20, [5], 12)[0]
        rows = census._rewire_chains(len(g.nodes), *g.arcs, [derive_seed(5, i) for i in range(20)], 12)
        samples = [rewire(g, derive_seed(5, i), 12).arcs for i in range(4)]
        assert sha256_of([counts]) == (
            "67e6579137079075704ab35a67ed88a2f2f991ff71f4e6b67582f0f5873021cd")
        assert sha256_of([rows]) == (
            "16e5d0e69a79ae1fbf7db55c730e464069ae8cf8ca2615c77b7c8e2f8d2fcfe0")
        assert sha256_of(arc for sample in samples for arc in sample) == (
            "5cc3529e4b129b49a9f70812149ac3239aba1e68ed0559ead3b31b150dcefd5d")

    def test_no_generator_is_made(self, scalar_calls: list, monkeypatch) -> None:
        g = SWAP_GRAPHS["hub-heavy"]
        size = BATCH_MIN_ENSEMBLE
        batched = census._null_counts([g], size, [22], 3)[0]
        sample = rewire(g, derive_seed(22, 0), 3).edges
        assert len(scalar_calls) == 1

        def refused(*args, **kwargs):
            raise AssertionError("the package made a numpy Generator")

        monkeypatch.setattr(np.random, "default_rng", refused)
        assert np.array_equal(census._null_counts([g], size, [22], 3)[0], batched)
        assert rewire(g, derive_seed(22, 0), 3).edges == sample
        monkeypatch.setattr(census, "_BLOCK_BYTES", block_budget(g, size) - 1)
        assert np.array_equal(census._null_counts([g], size, [22], 3)[0], batched)
        assert len(scalar_calls) == 2 + size


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
        counts = census._null_counts([self.graph], self.size, [21], 5)[0]
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
