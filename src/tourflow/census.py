"""Triad census, degree-preserving rewiring and motif z-scores.

The 16 directed triad isomorphism classes follow the standard M-A-N
naming (003 ... 300).  Counting follows Batagelj and Mrvar: each node
pair joined by an arc is taken once, with every third node at a time,
on integer arrays; an ordering guard counts each connected triple from
one pair only, and the empty class 003 is obtained arithmetically.  The
census costs O(P * n) array work for P adjacent pairs instead of
O(n^3).  One kernel, on node-index arrays, counts both the observed
graph and every null-model sample, so the samples are never built into
graphs.

Null models are degree-preserving double-edge swaps of the binarised
graph; z-scores compare the real count of each connected class against
the ensemble mean and population standard deviation.  A large ensemble
advances its swap chains in blocks on node-index arrays, one block
after another, in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MobilityGraph
from .metrics import flagged_csv, sig6
from .seeds import derive_seed

TRIAD_NAMES = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)

# All classes with at least one edge between every pair of roles, i.e.
# the weakly connected triads (016 minus 003, 012, 102).
CONNECTED_TRIADS = TRIAD_NAMES[3:]

# Maps the 6-bit arc code of an ordered triple (v, u, w) to the
# 1-based index of its isomorphism class in TRIAD_NAMES.
TRICODES = (
    1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11,
    2, 6, 4, 8, 5, 9, 9, 13, 6, 10, 9, 14, 7, 14, 12, 15,
    2, 5, 6, 7, 6, 9, 10, 14, 4, 9, 9, 12, 8, 13, 14, 15,
    3, 7, 8, 11, 7, 12, 14, 15, 8, 14, 13, 15, 11, 15, 15, 16,
)


@dataclass(frozen=True)
class TriadCensus:
    """Counts of all 16 triad classes; they sum to C(n, 3)."""

    node_count: int
    counts: dict[str, int]

    @property
    def total(self) -> int:
        n = self.node_count
        return n * (n - 1) * (n - 2) // 6

    def to_csv(self) -> str:
        lines = ["class,count"]
        for name in TRIAD_NAMES:
            lines.append(f"{name},{self.counts[name]}")
        return "\n".join(lines) + "\n"


def _guarded_classes() -> np.ndarray:
    """The 1-based TRIAD_NAMES class of every guarded code; 0 where the guard drops it.

    A guarded code extends the 6-bit arc code of (v, u, w), for a pair
    v < u, by bit 6 (v < w) and bit 7 (u < w).  A third node joined to
    neither end leaves a dyadic triad (012 or 102) that only this pair
    sees.  A connected triple is counted from one of its pairs only, as
    in Batagelj and Mrvar: from (v, u) when u < w, or when v < w < u and
    w is not adjacent to v (bits 2 and 3 clear).  The two ends of the
    pair never pass, being adjacent to each other.
    """
    classes = np.zeros(256, dtype=np.intp)
    for guarded in range(256):
        code, after_v, after_u = guarded & 63, guarded >> 6 & 1, guarded >> 7
        if code < 4 or after_u or (after_v and not code & 12):
            classes[guarded] = TRICODES[code]
    return classes


_GUARDED_CLASSES = _guarded_classes()

# The census kernel gathers one row of n bytes per arc pair; pairs are
# taken in chunks of about _CENSUS_CHUNK bytes, so that its memory stays
# bounded on dense graphs too.
_CENSUS_CHUNK = 1 << 16


def _census_counts(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The 16 class counts, in TRIAD_NAMES order, of the arcs src[i] -> dst[i] on n nodes.

    Every node pair v < u joined by at least one arc is taken once, with
    every third node w at a time: the guarded code of (v, u, w) (see
    ``_guarded_classes``) is put together from the rows of v and u in
    two n-by-n byte matrices.  The codes are counted with one
    ``bincount`` and folded into classes; the empty class 003 closes
    the total to C(n, 3).
    """
    arcs = np.zeros((n, n), dtype=np.uint8)
    arcs[src, dst] = 1
    arcs |= arcs.T << 1  # arcs[v, w]: bit 0 for v -> w, bit 1 for w -> v
    nodes = np.arange(n)
    after = np.less.outer(nodes, nodes).view(np.uint8)  # after[v, w]: v < w
    from_v = arcs << 2 | after << 6
    from_u = arcs << 4 | after << 7
    first, second = np.nonzero(arcs * after)  # the pairs v < u joined by an arc
    hist = np.zeros(len(_GUARDED_CLASSES), dtype=np.int64)
    step = max(1, _CENSUS_CHUNK // max(n, 1))
    for lo in range(0, len(first), step):
        v = first[lo:lo + step]
        u = second[lo:lo + step]
        code = from_v[v] | from_u[u]
        code |= arcs[v, u][:, None]
        hist += np.bincount(code.ravel(), minlength=len(hist))
    counts = np.zeros(len(TRIAD_NAMES) + 1, dtype=np.int64)
    np.add.at(counts, _GUARDED_CLASSES, hist)
    counts = counts[1:]
    counts[0] = n * (n - 1) * (n - 2) // 6 - counts[1:].sum()
    return counts


def triad_census(graph: MobilityGraph) -> TriadCensus:
    """Count every directed triad class (Batagelj-Mrvar method).

    Requires at least 3 nodes.  The graph's arcs, as node indices, go
    through the same kernel that counts each null-model sample.
    """
    n = len(graph.nodes)
    if n < 3:
        raise ValueError(f"triad census needs >= 3 nodes, got {n}")
    counts = _census_counts(n, *graph.arcs)
    return TriadCensus(n, dict(zip(TRIAD_NAMES, counts.tolist())))


def _check_swaps(edge_count: int, swaps_per_edge: int) -> None:
    """Reject what no swap chain can run on: fewer than 2 edges, or no swaps."""
    if edge_count < 2:
        raise ValueError(f"rewiring needs >= 2 edges, got {edge_count}")
    if swaps_per_edge < 1:
        raise ValueError(f"swaps_per_edge must be >= 1, got {swaps_per_edge}")


def _edge_slots(graph: MobilityGraph, swaps_per_edge: int) -> tuple[np.ndarray, np.ndarray]:
    """Node indices (sources, destinations) of the sorted edges, for rewiring.

    Each slot keeps its source for good; a swap exchanges the
    destinations of two slots.  The arrays are the graph's read-only
    ``arcs``.
    """
    _check_swaps(len(graph.edges), swaps_per_edge)
    return graph.arcs


def _binary_graph(graph: MobilityGraph, src: list[int], dst: list[int]) -> MobilityGraph:
    codes = graph.nodes
    edges = {(codes[a], codes[b]): 1 for a, b in zip(src, dst)}
    return MobilityGraph(graph.nodes, edges, graph.label)


def rewire(graph: MobilityGraph, seed: int, swaps_per_edge: int = 100) -> MobilityGraph:
    """Degree-preserving randomisation by directed double-edge swaps.

    Exactly ``|E| * swaps_per_edge`` swaps are attempted: each picks two
    edges a->b and c->d uniformly (with replacement) and proposes a->d
    plus c->b, rejecting any proposal that would create a self-loop or a
    duplicate edge.  In- and out-degree sequences are invariant under
    every accepted swap.  Weights are discarded; the result is a binary
    graph with unit weights.
    """
    src, dst = (slots.tolist() for slots in _edge_slots(graph, swaps_per_edge))
    n = len(graph.nodes)
    present = {a * n + b for a, b in zip(src, dst)}
    edge_count = len(src)
    rng = np.random.default_rng(seed)
    remaining = edge_count * swaps_per_edge
    chunk = 1 << 14
    while remaining > 0:
        take = min(remaining, chunk)
        remaining -= take
        draws = rng.integers(0, edge_count, size=2 * take).tolist()
        for t in range(take):
            i = draws[2 * t]
            j = draws[2 * t + 1]
            a, b = src[i], dst[i]
            c, d = src[j], dst[j]
            if a == d or c == b:
                continue
            first = a * n + d
            second = c * n + b
            if first in present or second in present:
                continue
            present.discard(a * n + b)
            present.discard(c * n + d)
            present.add(first)
            present.add(second)
            dst[i] = d
            dst[j] = b
    return _binary_graph(graph, src, dst)


# Chains advance in lockstep (_rewire_chains) in blocks of at most
# _CHAIN_BLOCK chains, and of no more than fit a presence bitmap of
# _BITMAP_BYTES (n * n bytes per chain); each chain draws _STEP_WINDOW
# swap steps at a time.  These bound the kernel's memory, whatever the
# ensemble size.  Where a block would hold fewer than
# BATCH_MIN_ENSEMBLE chains, rewire runs once per sample instead: the
# two break even at about 16 chains (100 swaps per edge, 117-node
# Top-k graphs, 2-vCPU Xeon host).
BATCH_MIN_ENSEMBLE = 16
_CHAIN_BLOCK = 128
_BITMAP_BYTES = 1 << 20
_STEP_WINDOW = 256


def _rewire_chains(
    n: int, src: np.ndarray, dst0: np.ndarray, seeds: list[int], swaps_per_edge: int
) -> np.ndarray:
    """Row c holds the slot destinations of the rewired sample drawn with ``seeds[c]``.

    The arcs ``src[i] -> dst0[i]`` on n nodes are those of
    ``_edge_slots(graph, swaps_per_edge)``, and row c equals the
    destinations of ``rewire(graph, seeds[c], swaps_per_edge)``.  All
    chains advance together, one swap step per Python iteration, on
    numpy arrays.  Chain c owns ``dst[c*E:(c+1)*E]`` and the presence
    bitmap ``present[c*n*n:(c+1)*n*n]``, whose diagonal is marked
    present so that a proposed self-loop fails the duplicate test.
    Every chain draws from its own generator, in windows of
    ``_STEP_WINDOW`` steps; windowed ``integers`` draws concatenate to
    the one-shot draw, so each sample is bit-identical to ``rewire``'s.
    """
    edge_count = len(src)
    _check_swaps(edge_count, swaps_per_edge)
    chains = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    node_base = np.arange(chains, dtype=np.intp) * (n * n)
    edge_base2 = np.tile(np.arange(chains, dtype=np.intp) * edge_count, 2)
    node_base2 = np.tile(node_base, 2)
    flip = np.roll(np.arange(2 * chains), chains)
    dst = np.tile(dst0, chains)
    present = np.zeros(chains * n * n, dtype=bool)
    present[(node_base[:, None] + src * n + dst.reshape(chains, edge_count)).ravel()] = True
    present[(node_base[:, None] + np.arange(n) * (n + 1)).ravel()] = True
    remaining = edge_count * swaps_per_edge
    while remaining > 0:
        take = min(remaining, _STEP_WINDOW)
        remaining -= take
        draws = np.empty((chains, 2 * take), dtype=np.intp)
        for chain, rng in enumerate(rngs):
            draws[chain] = rng.integers(0, edge_count, size=2 * take)
        # Row t holds the first slot that step t draws in every chain, then the second.
        slots = draws.reshape(chains, take, 2).transpose(1, 2, 0).reshape(take, 2 * chains)
        del draws  # before rows is allocated, so a window holds two arrays at most
        rows = src[slots]
        rows *= n
        rows += node_base2
        slots += edge_base2
        for slot, row in zip(slots, rows):
            ends = dst[slot]  # [b, d] of the picked arcs a->b, c->d
            swapped = ends[flip]  # [d, b]
            proposed = row + swapped  # [a->d, c->b]
            taken = present[proposed]
            rejected = taken | taken[flip]
            # A rejected chain writes back the values it read.
            present[row + ends] = rejected
            present[proposed] = taken == rejected
            dst[slot] = np.where(rejected, ends, swapped)
    return dst.reshape(chains, edge_count)


def _null_counts(
    graph: MobilityGraph, ensemble_size: int, seed: int, swaps_per_edge: int
) -> np.ndarray:
    """The CONNECTED_TRIADS counts of each null sample, in order; sample i uses ``derive_seed(seed, i)``.

    Blocks of chains are rewired by ``_rewire_chains`` and counted by
    ``_census_counts`` one after another, so at most one block's
    samples are held at a time.
    """
    n = len(graph.nodes)
    src, dst0 = _edge_slots(graph, swaps_per_edge)
    per_block = min(_CHAIN_BLOCK, _BITMAP_BYTES // (n * n), ensemble_size)
    if per_block < BATCH_MIN_ENSEMBLE:
        # Rewiring keeps every out-degree, so the sorted arcs of a sample
        # run from the same sources as the graph's.
        return np.array([
            _census_counts(n, src, rewire(graph, derive_seed(seed, i), swaps_per_edge).arcs[1])[3:]
            for i in range(ensemble_size)
        ])
    # The kernel is exact only while Generator.integers, called window by
    # window, yields the same stream as one call, which numpy does not
    # promise across releases; sample 0 is drawn by rewire as well, and a
    # mismatch stops the run.
    reference = rewire(graph, derive_seed(seed, 0), swaps_per_edge).edges
    blocks = -(-ensemble_size // per_block)
    bounds = [ensemble_size * b // blocks for b in range(blocks + 1)]
    counts = []
    for lo, hi in zip(bounds, bounds[1:]):
        samples = _rewire_chains(
            n, src, dst0, [derive_seed(seed, i) for i in range(lo, hi)], swaps_per_edge)
        if lo == 0 and _binary_graph(graph, src.tolist(), samples[0].tolist()).edges != reference:
            raise RuntimeError("batched rewiring diverged from rewire on sample 0")
        # CONNECTED_TRIADS is TRIAD_NAMES[3:].
        counts.extend(_census_counts(n, src, dst)[3:] for dst in samples)
    return np.array(counts)


@dataclass(frozen=True)
class MotifZScores:
    """Real counts of the 13 connected triad classes against a null.

    ``z`` is None (and the class flagged undefined) when the null
    ensemble has zero spread for that class.
    """

    classes: tuple[str, ...]
    real: dict[str, int]
    null_mean: dict[str, float]
    null_std: dict[str, float]
    z: dict[str, float | None]
    ensemble_size: int
    swaps_per_edge: int
    seed: int

    def relevant(self, z_min: float = 2.0, count_min: int = 4) -> dict[str, bool]:
        """Annotation flags: high z-score backed by enough real triads."""
        return {
            name: (self.z[name] is not None and self.z[name] >= z_min
                   and self.real[name] >= count_min)
            for name in self.classes
        }

    def to_csv(self, z_min: float = 2.0, count_min: int = 4) -> str:
        """One row per class: ``class,real,mean,std,z,flag``.

        The flag column reads ``undefined`` when the null spread is
        zero, ``relevant`` when the annotation rule fires, else empty.
        """
        flags = self.relevant(z_min, count_min)
        lines = ["class,real,mean,std,z,flag"]
        for name in self.classes:
            z = self.z[name]
            z_text = "" if z is None else sig6(z)
            flag = "undefined" if z is None else ("relevant" if flags[name] else "")
            lines.append(
                f"{name},{self.real[name]},{sig6(self.null_mean[name])},"
                f"{sig6(self.null_std[name])},{z_text},{flag}"
            )
        return "\n".join(lines) + "\n"


def motif_zscores(
    graph: MobilityGraph,
    ensemble_size: int = 1000,
    seed: int = 0,
    swaps_per_edge: int = 100,
    observed: TriadCensus | None = None,
) -> MotifZScores:
    """z-scores of connected triad counts against rewired null graphs.

    Sample i is rewired with the seed derived from ``(seed, i)``, so the
    ensemble is reproducible and insensitive to evaluation order.  Large
    ensembles advance their chains in lockstep on numpy arrays, block by
    block, in this process.  Every sample is still
    bit-identical to ``rewire(graph, derive_seed(seed, i),
    swaps_per_edge)``, and is counted on its node-index arcs by the
    same kernel as ``triad_census``.  The standard deviation is the
    population one (ddof 0); classes with zero spread get z = None.
    ``observed`` is the graph's own ``triad_census``, for a caller that
    already has it; by default it is computed here.
    """
    if ensemble_size < 2:
        raise ValueError(f"ensemble_size must be >= 2, got {ensemble_size}")
    n = len(graph.nodes)
    if observed is None:
        observed = triad_census(graph)
    elif observed.node_count != n:
        raise ValueError(
            f"observed census covers {observed.node_count} nodes, the graph {n}")
    samples = _null_counts(graph, ensemble_size, seed, swaps_per_edge).astype(np.float64)
    means = samples.mean(axis=0)
    stds = samples.std(axis=0)
    real = {name: observed.counts[name] for name in CONNECTED_TRIADS}
    z: dict[str, float | None] = {}
    for pos, name in enumerate(CONNECTED_TRIADS):
        if stds[pos] == 0.0:
            z[name] = None
        else:
            z[name] = (real[name] - means[pos]) / float(stds[pos])
    return MotifZScores(
        classes=CONNECTED_TRIADS,
        real=real,
        null_mean={name: float(means[pos]) for pos, name in enumerate(CONNECTED_TRIADS)},
        null_std={name: float(stds[pos]) for pos, name in enumerate(CONNECTED_TRIADS)},
        z=z,
        ensemble_size=ensemble_size,
        swaps_per_edge=swaps_per_edge,
        seed=seed,
    )


def z_percent_diff(a: MotifZScores, b: MotifZScores) -> dict[str, float | None]:
    """Relative z-score change 100 * (z_a - z_b) / |z_b| per class.

    None marks classes where either score is undefined or the reference
    ``z_b`` is exactly zero.
    """
    if a.classes != b.classes:
        raise ValueError("z-score tables cover different motif classes")
    diff: dict[str, float | None] = {}
    for name in a.classes:
        za, zb = a.z[name], b.z[name]
        if za is None or zb is None or zb == 0.0:
            diff[name] = None
        else:
            diff[name] = 100.0 * (za - zb) / abs(zb)
    return diff


def z_percent_diff_csv(diff: dict[str, float | None]) -> str:
    return flagged_csv("class,percent_diff,flag", ((name, diff[name]) for name in CONNECTED_TRIADS))
