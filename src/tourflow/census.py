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
after another, in the calling process.  Graphs that share their node
and arc counts can share the blocks: ``tourflow analyze`` runs the two
datasets' ensembles of one direction and k as one block of twice the
chains, up to about 200 chains a block on paper-scale Top-3 graphs
(see _BLOCK_BYTES).  Every swap chain draws its slots from a stream the
package owns (``_swap_draws``): Lemire's bounded draw over the raw
words of a PCG64 bit generator, reduced for a whole block of chains at
once.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Iterator
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
    ``_guarded_classes``) is assembled from the rows of v and u in
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

    Requires at least 3 nodes.  The counts are the graph's cached
    ``triad_counts``: its arcs, as node indices, go once through the
    same kernel that counts each null-model sample.
    """
    n = len(graph.nodes)
    if n < 3:
        raise ValueError(f"triad census needs >= 3 nodes, got {n}")
    return TriadCensus(n, dict(zip(TRIAD_NAMES, graph.triad_counts.tolist())))


def _check_swaps(edge_count: int, swaps_per_edge: int) -> None:
    """Reject what no swap chain can run on: fewer than 2 edges, or no swaps."""
    if edge_count < 2:
        raise ValueError(f"rewiring needs >= 2 edges, got {edge_count}")
    if swaps_per_edge < 1:
        raise ValueError(f"swaps_per_edge must be >= 1, got {swaps_per_edge}")


_DRAW_WINDOW = 512
# _swap_draws draws and reduces the words of this many chains at a time,
# so its words and their uint64 products take 192 KiB at most, however
# many chains a block holds.
_DRAW_CHAINS = 16


def _slot_dtype(edge_count: int) -> type:
    """The narrowest dtype of _swap_draws' windows that holds every slot below ``edge_count``."""
    return np.uint16 if edge_count <= 1 << 16 else np.int32


def _mapped(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Zeroed arrays of these (shape, dtype)s, cut from one anonymous memory map.

    A chain block's bitmaps and index windows live here, and the map
    goes back to the system as soon as the block ends.  Made by numpy
    instead, they came from the allocator's heap once it had freed the
    first block, and stayed there: peak RSS crept up by 0.2-0.4 MB with
    every ensemble.
    """
    sizes = [-(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64 for shape, dtype in specs]
    buffer = np.frombuffer(mmap.mmap(-1, sum(sizes)), dtype=np.uint8)
    arrays, start = [], 0
    for (shape, dtype), size in zip(specs, sizes):
        count = math.prod(shape)
        arrays.append(buffer[start:start + count * np.dtype(dtype).itemsize]
                      .view(dtype).reshape(shape))
        start += size
    return arrays


def _lemire(
    halves: np.ndarray, edge_count: int, threshold: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded draw on uint32 half-words: each one's slot below ``edge_count``, and whether it is rejected.

    A half-word h gives the slot ``(h * edge_count) >> 32``, unless the
    low 32 bits of that product fall below ``threshold`` (``2**32 %
    edge_count``); then h is rejected.  The product is made in uint64 by
    name: under numpy 1.x value-based casting, a uint32 array times a
    small ``np.uint64`` stays uint32 and wraps.
    """
    product = np.multiply(halves, np.uint64(edge_count), dtype=np.uint64, out=out)
    parts = product.astype("<u8", copy=False).view("<u4")  # low, high of each product
    return parts[..., 1::2], parts[..., ::2] < threshold


def _bounded_draws(
    bitgen: np.random.PCG64, pending: np.ndarray, count: int, edge_count: int, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` slots below ``edge_count`` from the half-words ``pending``, then from ``bitgen``.

    This is ``_lemire`` as ``Generator.integers`` applies it for 32-bit
    ranges: a rejected half-word is spent and the next one is tried.
    Each 64-bit word of ``bitgen`` gives its low half first, then its
    high half.  Words are drawn only as far as the slots need, and the
    half-words left unspent (none or one) are returned to be spent first
    next time.
    """
    taken = []
    while count > 0:
        if len(pending) < count:
            words = bitgen.random_raw(-(-(count - len(pending)) // 2))
            pending = np.concatenate([pending, words.astype("<u8", copy=False).view("<u4")])
        slots, rejected = _lemire(pending, edge_count, threshold)
        accepted = np.flatnonzero(~rejected)[:count]
        taken.append(slots[accepted])
        count -= len(accepted)
        pending = pending[accepted[-1] + 1:] if count == 0 else pending[:0]
    return np.concatenate(taken).astype(np.int32), pending


def _swap_draws(seeds: list[int], edge_count: int, steps: int) -> Iterator[np.ndarray]:
    """The slot pairs of the swap chains seeded with ``seeds``, as ``(chains, take, 2)`` windows.

    Row t of chain c's window holds the two slots that chain c's next
    swap step picks, from ``edge_count`` slots; the windows hold
    ``steps`` steps, at most ``_DRAW_WINDOW`` each.  ``rewire`` and
    ``_rewire_chains`` draw only here, so they take the same slots for a
    seed.  The package owns this stream: chain c reads the 64-bit words
    of ``np.random.PCG64(seeds[c])`` and bounds them by Lemire's method
    (``_lemire``), so its bytes rest on PCG64 and ``SeedSequence``
    alone.  Each window equals the next int32 ``integers`` call, for
    slots below ``edge_count`` in shape ``(take, 2)``, of a numpy
    ``Generator`` on ``PCG64(seeds[c])``.  The windows hold their slots
    as ``_slot_dtype(edge_count)``: int32 holds every slot, since the
    676 two-letter codes carry at most 676 * 675 arcs.

    A window is drawn ``_DRAW_CHAINS`` chains at a time: ``take`` words
    per chain into a scratch buffer, reduced there in place, then stored
    as slots.  A chain that holds a half-word left from its last window
    spends it first: it goes in front of the window's half-words, and
    the window's last half-word is kept for the next window instead.
    That is exact for every chain with no rejected draw in the window.
    A chain with one takes the window from ``_bounded_draws`` instead,
    which keeps the half-word it leaves over, if any.  A draw is
    rejected with odds below ``edge_count / 2**32``.  The yielded array
    is overwritten by the next window.
    """
    bitgens = [np.random.PCG64(seed) for seed in seeds]
    chains = len(seeds)
    threshold = (1 << 32) % edge_count
    carried = np.zeros(chains, dtype=bool)  # chain c holds the spare half-word carry[c]
    carry = np.zeros(chains, dtype=np.uint32)
    batch = min(chains, _DRAW_CHAINS)
    draws = np.empty((chains, _DRAW_WINDOW, 2), dtype=_slot_dtype(edge_count))
    words = np.empty((batch, _DRAW_WINDOW), dtype=np.uint64)
    products = np.empty((batch, _DRAW_WINDOW, 2), dtype=np.uint64)
    halves = words.view("<u4").reshape(batch, _DRAW_WINDOW, 2)  # the low then the high half
    flat = halves.reshape(batch, 2 * _DRAW_WINDOW)
    remaining = steps
    while remaining > 0:
        take = min(remaining, _DRAW_WINDOW)
        remaining -= take
        for lo in range(0, chains, _DRAW_CHAINS):
            group = bitgens[lo:lo + _DRAW_CHAINS]
            for row, bitgen in enumerate(group):
                words[row, :take] = bitgen.random_raw(take)
            spare = np.flatnonzero(carried[lo:lo + len(group)])
            if len(spare):
                drawn = flat[spare, :2 * take]
                flat[spare, 0] = carry[lo + spare]
                flat[spare, 1:2 * take] = drawn[:, :-1]
                carry[lo + spare] = drawn[:, -1]
            slots, rejected = _lemire(halves[:len(group), :take], edge_count, threshold,
                                      products[:len(group), :take])
            draws[lo:lo + len(group), :take] = slots
            for row in np.flatnonzero(rejected.any(axis=(1, 2))):
                chain = lo + row
                pending = flat[row, :2 * take]
                pending = np.append(pending, carry[chain]) if carried[chain] else pending.copy()
                window, pending = _bounded_draws(
                    bitgens[chain], pending, 2 * take, edge_count, threshold)
                draws[chain, :take] = window.reshape(take, 2)
                carried[chain] = len(pending) > 0
                if carried[chain]:
                    carry[chain] = pending[0]
        yield draws[:, :take]


def rewire(graph: MobilityGraph, seed: int, swaps_per_edge: int = 100) -> MobilityGraph:
    """Degree-preserving randomisation by directed double-edge swaps.

    Exactly ``|E| * swaps_per_edge`` swaps are attempted: each picks two
    edges a->b and c->d uniformly (with replacement) and proposes a->d
    plus c->b, rejecting any proposal that would create a self-loop or a
    duplicate edge.  In- and out-degree sequences are invariant under
    every accepted swap.  Weights are discarded; the result is a binary
    graph with unit weights.
    """
    _check_swaps(graph.edge_count, swaps_per_edge)
    src, dst = (slots.tolist() for slots in graph.arcs)
    n = len(graph.nodes)
    present = {a * n + b for a, b in zip(src, dst)}
    for window in _swap_draws([seed], len(src), len(src) * swaps_per_edge):
        for i, j in window[0].tolist():
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
    # Slots keep their sorted sources, so one lexsort orders the destinations within each.
    src, dst = graph.arcs[0], np.array(dst, dtype=np.intp)
    return MobilityGraph(graph.nodes, (src, dst[np.lexsort((dst, src))]),
                         np.ones(len(src), dtype=np.int64), graph.label)


# Chains advance in lockstep (_rewire_chains) in blocks, and the arrays
# of a block that grow with its chain count fit in _BLOCK_BYTES.  Per
# chain (_chain_bytes) they are the n * n presence bitmap, E int16
# destinations, a window of _DRAW_WINDOW swap steps as uint16 slots
# (2 KiB; int32 slots above 2**16 arcs) and _STEP_WINDOW of those steps
# as slot and row indices (512 bytes): 17.0 KB for a 117-node Top-3
# graph (E = 351), so up to 216 chains make one block, and the two
# datasets' paired ensembles of 100 run as one block of 200.  A joint
# block of two such graphs took 87.0, 76.9, 70.0 and 67.8 ns a chain
# step at 100, 150, 200 and 300 chains, and 91.9, 80.5, 74.3 and 68.5 at
# E = 117 (one CPU of a 2-vCPU Xeon host, 20 swaps per edge, best of 16
# runs): blocks past 200 chains gain 3-8% more for half as much memory
# again.  _swap_draws' words and products do not grow with the block
# (see _DRAW_CHAINS).  An ensemble runs as the fewest even blocks that
# fit.  Where those blocks would hold fewer than BATCH_MIN_ENSEMBLE
# chains, rewire runs once per sample instead: at E = 3n, from 459
# nodes for ensembles of 100 or 1000, and from 474 for 16.  A batched
# ensemble also draws sample 0 with rewire (below); counting that draw,
# one block overtakes rewire at 14 chains on a 117-node Top-3 graph and
# at 16 on a Top-1 graph (100 swaps per edge, 2-vCPU Xeon host).
BATCH_MIN_ENSEMBLE = 16
_BLOCK_BYTES = 7 << 19  # 3.5 MiB
_STEP_WINDOW = 16


def _chain_bytes(n: int, edge_count: int) -> int:
    """Bytes of one chain's arrays in ``_rewire_chains``; see _BLOCK_BYTES."""
    slot = np.dtype(_slot_dtype(edge_count)).itemsize
    index = np.dtype(np.intp).itemsize
    return n * n + edge_count * 2 + 2 * _DRAW_WINDOW * slot + 2 * _STEP_WINDOW * 2 * index


def _rewire_chains(
    n: int, src: np.ndarray, dst0: np.ndarray, seeds: list[int], swaps_per_edge: int
) -> np.ndarray:
    """Row c holds the slot destinations of the rewired sample drawn with ``seeds[c]``.

    ``src`` and ``dst0`` are the sorted ``arcs`` of one graph on n nodes,
    or the rows of a (graphs, E) table of several graphs that share n
    and their arc count E.  The chains split evenly among the graphs, in
    row order: with G graphs, chain c rewires graph ``c // (chains //
    G)`` and reads its sources from that graph's row of the one table.
    Each slot keeps its source for good, and a swap exchanges the
    destinations of two slots.  All chains advance in lockstep, one swap
    step per Python iteration, on numpy arrays.  Chain c owns
    ``dst[c*E:(c+1)*E]``, as int16 (a block's bitmaps keep n below 500),
    and the presence bitmap ``present[c*n*n:(c+1)*n*n]``, whose diagonal
    is marked present so that a proposed self-loop fails the duplicate
    test.  The block reads its draw windows from one ``_swap_draws(seeds,
    ...)`` stream, whose chain c takes the slots that ``rewire`` takes
    with ``seeds[c]``, so row c equals the destinations of
    ``rewire(graph, seeds[c], swaps_per_edge)`` for chain c's graph.
    Each draw window is transposed ``_STEP_WINDOW`` steps at a time into
    two reused index buffers.
    """
    src, dst0 = np.atleast_2d(src, dst0)
    graphs, edge_count = src.shape
    _check_swaps(edge_count, swaps_per_edge)
    chains = len(seeds)
    per_graph = chains // graphs
    node_base = np.arange(chains, dtype=np.intp) * (n * n)
    source_base = np.repeat(np.arange(graphs, dtype=np.intp) * edge_count, per_graph)
    source_base2 = np.tile(source_base, 2)
    # Added to a slot once its source is read: chain c's row of dst.
    edge_shift2 = np.tile(np.arange(chains, dtype=np.intp) * edge_count, 2) - source_base2
    node_base2 = np.tile(node_base, 2)
    flip = np.roll(np.arange(2 * chains), chains)
    sources = src.ravel()
    dst = np.repeat(dst0.astype(np.int16), per_graph, axis=0).ravel()
    present, slot_window, row_window = _mapped(
        ((chains, n * n), np.bool_), ((_STEP_WINDOW, 2, chains), np.intp),
        ((_STEP_WINDOW, 2 * chains), np.intp))
    cells = src * n + dst0
    for graph in range(graphs):
        present[graph * per_graph:(graph + 1) * per_graph, cells[graph]] = True
    present[:, ::n + 1] = True
    present = present.ravel()
    for draws in _swap_draws(seeds, edge_count, edge_count * swaps_per_edge):
        take = draws.shape[1]
        for start in range(0, take, _STEP_WINDOW):
            width = min(take - start, _STEP_WINDOW)
            # Row t holds the first slot that step start+t draws in every
            # chain, then the second.
            slot_window[:width] = draws[:, start:start + width].transpose(1, 2, 0)
            slots = slot_window[:width].reshape(width, 2 * chains)
            rows = row_window[:width]
            slots += source_base2
            np.take(sources, slots, out=rows)
            rows *= n
            rows += node_base2
            slots += edge_shift2
            for slot, row in zip(slots, rows):
                ends = dst[slot]  # [b, d] of the picked arcs a->b, c->d
                swapped = ends[flip]  # [d, b]
                proposed = row + swapped  # [a->d, c->b]
                taken = present[proposed]
                rejected = taken | taken[flip]
                # A rejected chain writes back the values it read.
                present[row + ends] = rejected
                present[proposed] = taken == rejected
                np.copyto(swapped, ends, where=rejected)
                dst[slot] = swapped
    return dst.reshape(chains, edge_count)


def _null_counts(
    graphs: list[MobilityGraph], ensemble_size: int, seeds: list[int], swaps_per_edge: int
) -> np.ndarray:
    """Row g holds the CONNECTED_TRIADS counts of ``graphs[g]``'s null samples, in order.

    Sample i of graph g uses ``derive_seed(seeds[g], i)``.  The graphs
    share their node and arc counts.  Blocks of chains, each holding the
    same share of every graph's ensemble, are rewired by
    ``_rewire_chains`` and counted by ``_census_counts`` one after
    another, so at most one block's samples are held at a time.
    """
    graph = graphs[0]
    n, edge_count = len(graph.nodes), graph.edge_count
    capacity = _BLOCK_BYTES // _chain_bytes(n, edge_count)
    blocks = -(-ensemble_size // max(capacity // len(graphs), 1))
    if ensemble_size // blocks < BATCH_MIN_ENSEMBLE:
        if len(graphs) > 1:
            # Too few chains of each graph a block; alone, each may still batch.
            return np.concatenate([_null_counts([g], ensemble_size, [seed], swaps_per_edge)
                                   for g, seed in zip(graphs, seeds)])
        # Rewiring keeps every out-degree, so the sorted arcs of a sample
        # run from the same sources as the graph's.
        sources = graph.arcs[0]
        return np.array([[
            _census_counts(n, sources, rewire(graph, derive_seed(seeds[0], i), swaps_per_edge).arcs[1])[3:]
            for i in range(ensemble_size)]])
    # Sample 0 of each graph is drawn by rewire as well, and a mismatch
    # stops the run: both take the same draws, so this guards the
    # kernel's swap logic against rewire's.  It is also a batched
    # ensemble's only rewire call, which perfbench's traced
    # census.rewire figures read.  rewire checks the arcs first.
    references = [rewire(g, derive_seed(seed, 0), swaps_per_edge).arcs[1]
                  for g, seed in zip(graphs, seeds)]
    src = np.array([g.arcs[0] for g in graphs])
    dst0 = np.array([g.arcs[1] for g in graphs])
    counts = np.empty((len(graphs), ensemble_size, len(CONNECTED_TRIADS)), dtype=np.int64)
    bounds = [ensemble_size * b // blocks for b in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        samples = _rewire_chains(
            n, src, dst0, [derive_seed(seed, i) for seed in seeds for i in range(lo, hi)],
            swaps_per_edge).reshape(len(graphs), hi - lo, edge_count)
        for g, (sources, rows) in enumerate(zip(src, samples)):
            if lo == 0 and not np.array_equal(rows[0][np.lexsort((rows[0], sources))], references[g]):
                raise RuntimeError("batched rewiring diverged from rewire on sample 0")
            # CONNECTED_TRIADS is TRIAD_NAMES[3:].
            counts[g, lo:hi] = [_census_counts(n, sources, dst)[3:] for dst in rows]
    return counts


# A class is flagged relevant from this z-score and this real count on.
RELEVANT_Z = 2.0
RELEVANT_COUNT = 4


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

    def relevant(self) -> dict[str, bool]:
        """Annotation flags: z at least RELEVANT_Z, backed by RELEVANT_COUNT real triads."""
        return {
            name: (self.z[name] is not None and self.z[name] >= RELEVANT_Z
                   and self.real[name] >= RELEVANT_COUNT)
            for name in self.classes
        }

    def to_csv(self) -> str:
        """One row per class: ``class,real,mean,std,z,flag``.

        The flag column reads ``undefined`` when the null spread is
        zero, ``relevant`` when the annotation rule fires, else empty.
        """
        flags = self.relevant()
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
    null: np.ndarray | None = None,
) -> MotifZScores:
    """z-scores of connected triad counts against rewired null graphs.

    Sample i is rewired with the seed derived from ``(seed, i)``, so the
    ensemble is reproducible and insensitive to evaluation order.  Large
    ensembles advance their chains in lockstep on numpy arrays, block by
    block, in this process.  Every sample is still
    bit-identical to ``rewire(graph, derive_seed(seed, i),
    swaps_per_edge)``, and is counted on its node-index arcs by the
    same kernel as ``triad_census``.  ``null`` takes those counts where
    they were drawn already, as the row of ``_null_counts`` that a joint
    block of this graph and another of its shape gave it: one row of
    ``len(CONNECTED_TRIADS)`` counts per sample, ``ensemble_size`` rows,
    or a ``ValueError``.  The standard
    deviation is the population one (ddof 0); classes with zero spread
    get z = None.  The real counts come from ``triad_census(graph)``,
    which reads the graph's cached census, so a graph already counted is
    not counted again.
    """
    if ensemble_size < 2:
        raise ValueError(f"ensemble_size must be >= 2, got {ensemble_size}")
    observed = triad_census(graph)
    if null is None:
        null = _null_counts([graph], ensemble_size, [seed], swaps_per_edge)[0]
    elif null.shape != (ensemble_size, len(CONNECTED_TRIADS)):
        raise ValueError(f"null must hold {ensemble_size} samples of the "
                         f"{len(CONNECTED_TRIADS)} connected classes, got shape {null.shape}")
    samples = null.astype(np.float64)
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
