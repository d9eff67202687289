"""Structural metrics, centralities and strongly connected components.

Everything here treats the graph as directed and unweighted unless a
measure is explicitly strength- or PageRank-based.  Geodesic statistics
average over reachable ordered pairs only; the number of unreachable
pairs is reported alongside instead of being folded into the mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

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


def flagged_csv(header: str, items: Iterable[tuple[str, float | None]]) -> str:
    """``label,value,flag`` rows under ``header``: a value in :func:`sig6`
    and no flag, or, for None, a blank value flagged ``undefined``."""
    lines = [header]
    for label, value in items:
        lines.append(f"{label},,undefined" if value is None else f"{label},{sig6(value)},")
    return "\n".join(lines) + "\n"


def number_groups(groups: Iterable[Iterable[str]]) -> tuple[dict[str, int], tuple[int, ...]]:
    """Reproducible group ids: each code's id and each id's group size.

    Ids run 0, 1, ... by decreasing group size, ties broken by the
    smallest member code.
    """
    ordered = sorted((sorted(group) for group in groups), key=lambda g: (-len(g), g[0]))
    ids = {code: gid for gid, group in enumerate(ordered) for code in group}
    return ids, tuple(len(group) for group in ordered)


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
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = (
                {"mutual": value.mutual, "asymmetric": value.asymmetric, "null": value.null}
                if isinstance(value, DyadCensus)
                else value
            )
        return out

    def to_json(self, meta: dict | None = None) -> str:
        payload = {"meta": meta, **self.to_dict()} if meta is not None else self.to_dict()
        return json.dumps(payload, indent=2) + "\n"

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
    edges = graph.edges
    reciprocated = sum(1 for (o, d) in edges if (d, o) in edges)
    mutual = reciprocated // 2
    asymmetric = len(edges) - reciprocated
    n = len(graph.nodes)
    null = n * (n - 1) // 2 - mutual - asymmetric
    return DyadCensus(mutual, asymmetric, null)


def transitivity(graph: MobilityGraph) -> float:
    """Global clustering coefficient of the undirected projection.

    Defined as 3 * triangles / connected triples, where triples are
    counted as sum over nodes of C(degree, 2) in the projection.
    """
    n = len(graph.nodes)
    neigh = [set(succ).union(pred) for succ, pred in zip(graph.successors, graph.predecessors)]
    triples = sum(len(s) * (len(s) - 1) // 2 for s in neigh)
    if triples == 0:
        return 0.0
    # Each triangle contributes one common neighbour to each of its
    # three edges, so summing |N(u) & N(v)| over undirected edges u < v
    # yields exactly 3 * triangles.
    closed = sum(len(neigh[u] & neigh[v]) for u in range(n) for v in neigh[u] if u < v)
    return closed / triples


def geodesic_stats(graph: MobilityGraph) -> tuple[float, int, int]:
    """(average geodesic, diameter, unreachable ordered pairs).

    The average and diameter consider reachable ordered pairs s != t
    only; with no such pair both are reported as 0.  They come from the
    graph's one shortest-path pass (:func:`shortest_path_pass`).
    """
    _, total, reachable, diameter = graph.shortest_paths
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
    neighbours = graph.successors if direction == "out" else graph.predecessors
    degrees = [len(ends) for ends in neighbours]
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
    if n < 2:
        raise ValueError(f"structural report needs >= 2 nodes, got {n}")
    if centralization_direction is None:
        if subgraph.direction is None:
            raise ValueError("centralization_direction is required for plain graphs")
        centralization_direction = "in" if subgraph.direction == "out" else "out"
    edge_count = len(subgraph.edges)
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
        avg_strength=sum(subgraph.edges.values()) / n,
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
) -> dict[str, float]:
    """Weighted PageRank by power iteration.

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
            return {code: float(rank[i]) for i, code in enumerate(graph.nodes)}
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations (residual {residual:.3e})"
    )


def betweenness(graph: MobilityGraph) -> dict[str, float]:
    """Unnormalised betweenness on directed unweighted geodesics.

    Brandes' accumulation: dependencies pushed back through each
    source's shortest-path DAG, from the graph's one shortest-path pass
    (:func:`shortest_path_pass`).  Endpoints are excluded.
    """
    return dict(zip(graph.nodes, graph.shortest_paths[0].tolist()))


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


def shortest_path_pass(graph: MobilityGraph) -> tuple[np.ndarray, int, int, int]:
    """Brandes' betweenness and the geodesic totals of every source, in one pass.

    Returns the unnormalised betweenness per node position (read-only),
    the sum of the distances over reachable ordered pairs s != t, the
    number of such pairs and the largest such distance.

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
        delta = np.zeros(rows * n)
        for tail_cells, head_cells in reversed(levels):
            pops = np.argsort(-seen_at[head_cells], kind="stable")
            tail_cells, head_cells = tail_cells[pops], head_cells[pops]
            terms = sigma[tail_cells] / sigma[head_cells] * (1.0 + delta[head_cells])
            np.add.at(delta, tail_cells, terms)
        delta[sources] = 0.0
        for row in delta.reshape(rows, n):
            score += row
    return _read_only(score), total, reachable, diameter


def _tarjan_components(succ: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Strongly connected components, iteratively, in Tarjan's order.

    Uses Nuutila's variant: only potential roots sit on the component
    stack, and assigned nodes are never revisited.
    """
    n = len(succ)
    preorder = [-1] * n
    lowlink = [0] * n
    assigned = [False] * n
    root_stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for start in range(n):
        if preorder[start] >= 0:
            continue
        walk = [start]
        while walk:
            v = walk[-1]
            if preorder[v] < 0:
                preorder[v] = counter
                counter += 1
            descend = False
            for w in succ[v]:
                if preorder[w] < 0:
                    walk.append(w)
                    descend = True
                    break
            if descend:
                continue
            low = preorder[v]
            for w in succ[v]:
                if not assigned[w]:
                    low = min(low, lowlink[w] if preorder[w] > preorder[v] else preorder[w])
            lowlink[v] = low
            walk.pop()
            if low == preorder[v]:
                members = [v]
                while root_stack and preorder[root_stack[-1]] > preorder[v]:
                    members.append(root_stack.pop())
                for node in members:
                    assigned[node] = True
                components.append(members)
            else:
                root_stack.append(v)
    return components


@dataclass(frozen=True)
class ComponentAssignment:
    """Strongly connected component membership.

    Component ids run 0, 1, ... ordered by decreasing size, ties broken
    by the smallest member country code, so ids are reproducible.
    """

    countries: tuple[str, ...]
    component: dict[str, int]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def to_csv(self) -> str:
        lines = ["country,component_id,component_size"]
        for code in self.countries:
            cid = self.component[code]
            lines.append(f"{code},{cid},{self.sizes[cid]}")
        return "\n".join(lines) + "\n"


def scc(graph: MobilityGraph) -> ComponentAssignment:
    """Strongly connected components with deterministic component ids."""
    nodes = graph.nodes
    components = ([nodes[i] for i in members] for members in _tarjan_components(graph.successors))
    return ComponentAssignment(nodes, *number_groups(components))


def competition_ranks(values: dict[str, float]) -> dict[str, int]:
    """Rank descending by value; ties share the smaller rank.

    After a tie of size t at rank r the next distinct value gets rank
    r + t (standard competition ranking).
    """
    order = sorted(values, key=lambda code: (-values[code], code))
    ranks: dict[str, int] = {}
    current_rank = 0
    previous: float | None = None
    for position, code in enumerate(order, start=1):
        value = values[code]
        if previous is None or value != previous:
            current_rank = position
            previous = value
        ranks[code] = current_rank
    return ranks


@dataclass(frozen=True)
class CentralityTable:
    """Six per-country measures plus competition ranks for each."""

    countries: tuple[str, ...]
    values: dict[str, dict[str, float]]
    ranks: dict[str, dict[str, int]]

    def to_csv(self, measure: str) -> str:
        if measure not in self.values:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        vals = self.values[measure]
        ranks = self.ranks[measure]
        lines = ["rank,country,value"]
        for code in sorted(self.countries, key=lambda c: (ranks[c], c)):
            lines.append(f"{ranks[code]},{code},{sig6(vals[code])}")
        return "\n".join(lines) + "\n"


def centrality_table(
    graph: MobilityGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 1_000_000,
) -> CentralityTable:
    """Compute degree, strength, PageRank and betweenness per country."""
    in_degree = dict.fromkeys(graph.nodes, 0.0)
    out_degree = dict.fromkeys(graph.nodes, 0.0)
    in_strength = dict.fromkeys(graph.nodes, 0.0)
    out_strength = dict.fromkeys(graph.nodes, 0.0)
    for (origin, dest), weight in graph.edges.items():
        out_degree[origin] += 1.0
        in_degree[dest] += 1.0
        out_strength[origin] += float(weight)
        in_strength[dest] += float(weight)
    values = {
        "in_degree": in_degree,
        "out_degree": out_degree,
        "in_strength": in_strength,
        "out_strength": out_strength,
        "pagerank": pagerank(graph, damping=damping, tol=tol, max_iter=max_iter),
        "betweenness": betweenness(graph),
    }
    ranks = {measure: competition_ranks(vals) for measure, vals in values.items()}
    return CentralityTable(graph.nodes, values, ranks)
