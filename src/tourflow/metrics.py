"""Structural metrics, centralities and strongly connected components.

Everything here treats the graph as directed and unweighted unless a
measure is explicitly strength- or PageRank-based.  Geodesic statistics
average over reachable ordered pairs only; the number of unreachable
pairs is reported alongside instead of being folded into the mean.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError
from .graph import MobilityGraph, _read_only

MEASURES = ("in_degree", "out_degree", "in_strength", "out_strength", "pagerank", "betweenness")


def sig6(value: float) -> str:
    """Render a number with 6 significant digits (CSV report precision)."""
    return f"{value:.6g}"


def matrix_csv(corner: str, labels: Sequence[str], values: np.ndarray, spec: str = ".12g") -> str:
    """A square labelled matrix: a header row of labels after ``corner``,
    then one row per label, each cell formatted with ``spec``.

    A row is formatted by one ``%`` string, which for ``.12g`` and ``d``
    gives the bytes of ``format(cell, spec)``.  ``%d`` would truncate a
    float where ``d`` rejects it, so ``d`` takes integer matrices only.
    """
    if spec == "d" and values.dtype.kind not in "iu":
        raise ValueError(f"format d needs an integer matrix, got {values.dtype}")
    lines = [corner + "," + ",".join(labels)]
    row_format = ",".join(["%" + spec] * len(labels))
    for label, row in zip(labels, values):
        lines.append(label + "," + row_format % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


def flagged_csv(header: str, labels: Sequence[str], values: np.ndarray) -> str:
    """``label,value,flag`` rows under ``header``, one per label and value:
    a value in :func:`sig6` and no flag, or, for NaN, a blank value
    flagged ``undefined``."""
    lines = [header]
    for label, value in zip(labels, values.tolist()):
        lines.append(f"{label},,undefined" if math.isnan(value) else f"{label},{sig6(value)},")
    return "\n".join(lines) + "\n"


def number_groups(labels: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reproducible group ids: each position's id and each id's group size.

    Positions with equal labels form a group.  Ids run 0, 1, ... by
    decreasing group size, ties broken by the smallest member position;
    over a graph's sorted nodes that is the smallest member code.
    """
    _, first, group, sizes = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True)
    # Group g gets the id of its place in the order (-size, first position).
    order = np.lexsort((first, -sizes))
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.arange(len(order))
    return _read_only(ids[group]), tuple(sizes[order].tolist())


@dataclass(frozen=True)
class DyadCensus:
    """Counts of mutual, asymmetric and null dyads; sums to C(n, 2)."""

    mutual: int
    asymmetric: int
    null: int

    @property
    def total(self) -> int:
        return self.mutual + self.asymmetric + self.null

    @property
    def reciprocity(self) -> float:
        """Share of adjacent dyads that are mutual: 2M / (2M + A)."""
        adjacent = 2 * self.mutual + self.asymmetric
        return 2 * self.mutual / adjacent if adjacent else 0.0


@dataclass(frozen=True)
class StructuralReport:
    """Whole-graph summary statistics for one Top-k subgraph."""

    node_count: int
    edge_count: int
    density: float
    avg_geodesic: float
    diameter: int
    unreachable_pairs: int
    avg_degree: float
    avg_strength: float
    degree_centralization: float
    centralization_direction: str
    dyads: DyadCensus
    reciprocity: float
    transitivity: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        lines = ["metric,value"]
        for key, value in self.to_dict().items():
            if isinstance(value, dict):
                for sub, count in value.items():
                    lines.append(f"dyads_{sub},{count}")
            elif isinstance(value, float):
                lines.append(f"{key},{sig6(value)}")
            else:
                lines.append(f"{key},{value}")
        return "\n".join(lines) + "\n"


def dyad_census(graph: MobilityGraph) -> DyadCensus:
    """Classify every unordered node pair as mutual, asymmetric or null."""
    adj = graph.weights > 0
    reciprocated = int((adj & adj.T).sum())
    mutual = reciprocated // 2
    asymmetric = graph.edge_count - reciprocated
    n = len(graph.nodes)
    null = n * (n - 1) // 2 - mutual - asymmetric
    return DyadCensus(mutual, asymmetric, null)


# Positions in census.TRIAD_NAMES of the T triads, whose three node
# pairs are all joined (030T, 030C, 120D, 120U, 120C, 210, 300), and of
# the O triads, with exactly two joined pairs (021D, 021U, 021C, 111D,
# 111U, 201).  A T triad holds three connected triples, an O triad one.
_CLOSED_TRIADS = (8, 9, 11, 12, 13, 14, 15)
_OPEN_TRIADS = (3, 4, 5, 6, 7, 10)


def transitivity(graph: MobilityGraph) -> float:
    """Global clustering coefficient of the undirected projection.

    3 * triangles / connected triples, that is 3T / (3T + O) over the
    graph's cached triad census (Wasserman and Faust 1994, ch. 14), or
    0 when there is no connected triple.
    """
    counts = graph.triad_counts.tolist()
    closed = 3 * sum(counts[i] for i in _CLOSED_TRIADS)
    triples = closed + sum(counts[i] for i in _OPEN_TRIADS)
    return closed / triples if triples else 0.0


def geodesic_stats(graph: MobilityGraph) -> tuple[float, int, int]:
    """(average geodesic, diameter, unreachable ordered pairs).

    The average and diameter consider reachable ordered pairs s != t
    only; with no such pair both are reported as 0.  They come from the
    graph's one shortest-path pass (:func:`shortest_path_pass`).
    """
    _, total, reachable, diameter, _ = graph.shortest_paths
    n = len(graph.nodes)
    return (total / reachable if reachable else 0.0), diameter, n * (n - 1) - reachable


def degree_centralization(graph: MobilityGraph, direction: str) -> float:
    """Freeman degree centralization over in- or out-degrees.

    Computes sum(d_max - d_v) / (n - 1)^2, the star-normalised spread of
    the chosen degree sequence.  Requires at least 3 nodes.
    """
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    n = len(graph.nodes)
    if n < 3:
        raise ValueError(f"degree centralization needs >= 3 nodes, got {n}")
    degrees = np.bincount(graph.arcs[0 if direction == "out" else 1], minlength=n).tolist()
    top = max(degrees)
    return sum(top - d for d in degrees) / (n - 1) ** 2


def structural_report(
    subgraph: MobilityGraph, centralization_direction: str | None = None
) -> StructuralReport:
    """Compute the full structural summary of a Top-k subgraph.

    The degree centralization is taken over the direction that Top-k
    filtering did *not* constrain (for an Out subgraph the out-degrees
    are capped at k, so the in-degree distribution is the informative
    one, and vice versa).  Pass ``centralization_direction`` explicitly
    when the input is a plain graph, whose ``direction`` is None.
    """
    n = len(subgraph.nodes)
    if n < 3:
        raise ValueError(f"structural report needs >= 3 nodes, got {n}")
    if centralization_direction is None:
        if subgraph.direction is None:
            raise ValueError("centralization_direction is required for plain graphs")
        centralization_direction = "in" if subgraph.direction == "out" else "out"
    edge_count = subgraph.edge_count
    avg_geo, diameter, unreachable = geodesic_stats(subgraph)
    census = dyad_census(subgraph)
    return StructuralReport(
        node_count=n,
        edge_count=edge_count,
        density=edge_count / (n * (n - 1)),
        avg_geodesic=avg_geo,
        diameter=diameter,
        unreachable_pairs=unreachable,
        avg_degree=edge_count / n,
        avg_strength=float(subgraph.weights.sum()) / n,
        degree_centralization=degree_centralization(subgraph, centralization_direction),
        centralization_direction=centralization_direction,
        dyads=census,
        reciprocity=census.reciprocity,
        transitivity=transitivity(subgraph),
    )


def pagerank(
    graph: MobilityGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 1_000_000,
) -> np.ndarray:
    """Weighted PageRank by power iteration, per node position (read-only).

    Transition probabilities are edge weights normalised per origin row;
    dangling nodes redistribute their mass uniformly.  Iteration stops
    when the L1 change drops below ``tol`` and raises
    :class:`ConvergenceError` (reporting the residual) if the budget is
    exhausted first.  ``damping`` must lie in (0, 1), ``tol`` be > 0 and
    ``max_iter`` >= 1, or it raises ValueError.
    """
    if not 0 < damping < 1:
        raise ValueError(f"pagerank damping must lie in (0, 1), got {damping}")
    if not tol > 0:
        raise ValueError(f"pagerank tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"pagerank max_iter must be >= 1, got {max_iter}")
    n = len(graph.nodes)
    if n == 0:
        raise ValueError("pagerank needs a non-empty graph")
    weights = graph.weights
    out_strength = weights.sum(axis=1)
    dangling = out_strength == 0.0
    transition = np.zeros_like(weights)
    active = ~dangling
    transition[active] = weights[active] / out_strength[active, None]
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        spread = transition.T @ rank + rank[dangling].sum() / n
        updated = base + damping * spread
        residual = float(np.abs(updated - rank).sum())
        rank = updated
        if residual < tol:
            return _read_only(rank)
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations (residual {residual:.3e})"
    )


def betweenness(graph: MobilityGraph) -> np.ndarray:
    """Unnormalised betweenness on directed unweighted geodesics, per node position (read-only).

    Brandes' accumulation: dependencies pushed back through each
    source's shortest-path DAG, from the graph's one shortest-path pass
    (:func:`shortest_path_pass`).  Endpoints are excluded.
    """
    return graph.shortest_paths[0]


# Sources per block of the shortest-path pass: as many as keep both
# sources x arcs (the arc visits) and sources x nodes (the cells) within
# this budget.  A pass holds at most about 29 bytes per budgeted visit,
# under 2 MiB.  Measured on 2 vCPUs over the 40 Top-1..10 subgraphs of
# the seed-0 topk-sweep inputs (117 nodes): 0.18 s and a tracemalloc
# peak of at most 0.58 MB, where 1 << 14 took 0.31 s at 0.29 MB and one
# block of all sources 0.15 s at 0.99 MB.  At 676 nodes, where a sparse
# subgraph fills the budget with cells, the peak was 1.89 MB.
_BLOCK_VISITS = 1 << 16
_UNREACHED = np.iinfo(np.int32).max


def shortest_path_pass(graph: MobilityGraph) -> tuple[np.ndarray, int, int, int, np.ndarray]:
    """Brandes' betweenness, the geodesic totals and the reachability of every source, in one pass.

    Returns the unnormalised betweenness per node position (read-only),
    the sum of the distances over reachable ordered pairs s != t, the
    number of such pairs, the largest such distance, and per source the
    nodes it reaches (itself included) as one ``np.packbits`` row,
    n * ceil(n / 8) bytes (read-only).

    Brandes, "A faster algorithm for betweenness centrality", 2001, run
    as a level-synchronous BFS over a block of sources at once on the
    sorted arcs.  Every float addition happens in the order of the
    serial algorithm (one BFS per source in node order, successors
    ascending), so the scores are bit-identical to it:

    - ``sigma`` gets the frontier's counts in arc order, frontier in
      visit order and successors ascending;
    - a new node's visit order is its first appearance in that order
      (``np.minimum.at`` of the arc index);
    - ``delta`` gets each level's terms, deepest level first, in
      descending visit order of the arc's head (the serial stack pops);
    - the scores get each source's dependencies in source order.

    ``np.add.at`` adds in index order; no matrix product or float
    reduction is used, as both may reorder additions.
    """
    n = len(graph.nodes)
    tails, heads = graph.arcs
    heads = heads.astype(np.int32)
    first_arc = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n), out=first_arc[1:])
    out_degree = np.diff(first_arc)
    block = max(1, _BLOCK_VISITS // max(len(heads), n, 1))
    score = np.zeros(n)
    reached = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    total = reachable = diameter = 0
    for first in range(0, n, block):
        rows = min(block, n - first)
        # Cells are flat (row, node) keys row * n + node; row r is source first + r.
        base = np.arange(rows, dtype=np.int32) * n
        nodes = np.arange(first, first + rows, dtype=np.int32)
        frontier = sources = base + nodes
        sigma = np.zeros(rows * n)
        sigma[frontier] = 1.0
        # A reached cell's first arc in its level's arc order; _UNREACHED before.
        seen_at = np.full(rows * n, _UNREACHED, dtype=np.int32)
        seen_at[frontier] = 0
        levels: list[tuple[np.ndarray, np.ndarray]] = []
        depth = 0
        while True:
            counts = out_degree[nodes]
            ends = np.cumsum(counts, dtype=np.int32)
            succ = heads[np.repeat(first_arc[nodes] - ends + counts, counts)
                         + np.arange(ends[-1], dtype=np.int32)]
            head_cells = np.repeat(base, counts) + succ
            # Arcs into cells not yet reached are exactly the DAG arcs.
            dag = seen_at[head_cells] == _UNREACHED
            if not dag.any():
                break
            tail_cells = np.repeat(frontier, counts)[dag]
            head_cells, succ = head_cells[dag], succ[dag]
            np.add.at(sigma, head_cells, sigma[tail_cells])
            arc_order = np.arange(len(head_cells), dtype=np.int32)
            np.minimum.at(seen_at, head_cells, arc_order)
            new = seen_at[head_cells] == arc_order
            frontier, nodes = head_cells[new], succ[new]
            base = frontier - nodes
            levels.append((tail_cells, head_cells))
            depth += 1
            total += depth * len(frontier)
            reachable += len(frontier)
        diameter = max(diameter, depth)
        reached[first:first + rows] = np.packbits((seen_at != _UNREACHED).reshape(rows, n), axis=1)
        delta = np.zeros(rows * n)
        for tail_cells, head_cells in reversed(levels):
            pops = np.argsort(-seen_at[head_cells], kind="stable")
            tail_cells, head_cells = tail_cells[pops], head_cells[pops]
            terms = sigma[tail_cells] / sigma[head_cells] * (1.0 + delta[head_cells])
            np.add.at(delta, tail_cells, terms)
        delta[sources] = 0.0
        for row in delta.reshape(rows, n):
            score += row
    return _read_only(score), total, reachable, diameter, _read_only(reached)


@dataclass(frozen=True, eq=False)
class ComponentAssignment:
    """Strongly connected component membership.

    ``component`` holds each country's component id in ``countries``
    order (read-only).  Ids run 0, 1, ... ordered by decreasing size,
    ties broken by the smallest member country code, so ids are
    reproducible.
    """

    countries: tuple[str, ...]
    component: np.ndarray
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def to_csv(self) -> str:
        lines = ["country,component_id,component_size"]
        for code, cid in zip(self.countries, self.component.tolist()):
            lines.append(f"{code},{cid},{self.sizes[cid]}")
        return "\n".join(lines) + "\n"


def scc(graph: MobilityGraph) -> ComponentAssignment:
    """Strongly connected components with deterministic component ids.

    Two nodes share a component when each reaches the other, read from
    the reachability rows of the graph's one shortest-path pass
    (:func:`shortest_path_pass`); on a graph without a cached pass this
    runs the pass, O(n * m) numpy work.
    """
    nodes = graph.nodes
    reach = np.unpackbits(graph.shortest_paths[4], axis=1, count=len(nodes)).view(bool)
    mutual = reach & reach.T
    # Each node's first mutually reachable node names its component.  A
    # (0, 0) matrix has no argmax, so the empty graph gets no names.
    names = mutual.argmax(axis=1) if nodes else np.zeros(0, dtype=np.intp)
    return ComponentAssignment(nodes, *number_groups(names))


def competition_ranks(values: np.ndarray) -> np.ndarray:
    """Rank descending by value; ties share the smaller rank (read-only).

    A value's rank is one plus the number of values greater than it, so
    after a tie of size t at rank r the next distinct value gets rank
    r + t (standard competition ranking).  ``0.0`` and ``-0.0`` tie.
    """
    ascending = np.sort(values)
    greater = len(ascending) - np.searchsorted(ascending, values, side="right")
    return _read_only(greater + 1)


@dataclass(frozen=True, eq=False)
class CentralityTable:
    """Six per-country measures plus competition ranks for each.

    ``values`` and ``ranks`` map each measure to an array in
    ``countries`` order (read-only).
    """

    countries: tuple[str, ...]
    values: dict[str, np.ndarray]
    ranks: dict[str, np.ndarray]

    def to_csv(self, measure: str) -> str:
        if measure not in self.values:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        rows = zip(self.ranks[measure].tolist(), self.countries, self.values[measure].tolist())
        lines = ["rank,country,value"]
        for rank, code, value in sorted(rows):
            lines.append(f"{rank},{code},{sig6(value)}")
        return "\n".join(lines) + "\n"


def centrality_table(
    graph: MobilityGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 1_000_000,
) -> CentralityTable:
    """Compute degree, strength, PageRank and betweenness per country."""
    n = len(graph.nodes)
    src, dst = graph.arcs
    values = {
        "in_degree": _read_only(np.bincount(dst, minlength=n).astype(np.float64)),
        "out_degree": _read_only(np.bincount(src, minlength=n).astype(np.float64)),
        "in_strength": _read_only(graph.weights.sum(axis=0)),
        "out_strength": _read_only(graph.weights.sum(axis=1)),
        "pagerank": pagerank(graph, damping=damping, tol=tol, max_iter=max_iter),
        "betweenness": betweenness(graph),
    }
    ranks = {measure: competition_ranks(vals) for measure, vals in values.items()}
    return CentralityTable(graph.nodes, values, ranks)
