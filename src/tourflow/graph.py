"""Weighted directed country-to-country graphs and Top-k subgraph extraction.

The central type is :class:`MobilityGraph`: nodes are ISO-3166-like
two-letter country codes, an edge ``(origin, destination)`` carries a
positive integer weight (number of travellers observed on that flow).
Self-loops are excluded by construction.

Top-k filtering keeps, for every node, only its k strongest incoming
(:func:`topk_in`) or outgoing (:func:`topk_out`) edges.  Ties on weight
are broken toward the lexicographically smaller partner code so the
result is a pure function of the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from xml.sax.saxutils import escape

import numpy as np

# Every two-letter ASCII upper-case code, user-assigned ones included.
_COUNTRY_CODES = frozenset(
    a + b for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")

EXPORT_FORMATS = ("csv", "dot", "graphml")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class MobilityGraph:
    """A weighted directed graph over country codes.

    ``nodes`` is sorted lexicographically and may include isolated
    countries.  ``edges`` maps ``(origin, destination)`` to a weight
    >= 1; both endpoints must appear in ``nodes``.

    A Top-k subgraph (see :func:`topk_out` and :func:`topk_in`) records
    which endpoint was constrained in ``direction``: ``"in"`` means every
    node kept at most ``k`` incoming edges, ``"out"`` at most ``k``
    outgoing ones.  Both are None for a full graph.

    A graph is never changed after construction.  Its node index, its
    sorted arcs and weight matrix (the one adjacency every analysis
    reads), its shortest-path pass and its triad census are built on
    first use and cached; the cached arrays are read-only.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], int]
    label: str = ""
    direction: str | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if (self.direction is None) != (self.k is None):
            raise ValueError("direction and k must both be set or both be None")
        if self.direction is not None:
            if self.direction not in ("in", "out"):
                raise ValueError(f"direction must be 'in' or 'out', got {self.direction!r}")
            if self.k < 1:
                raise ValueError(f"k must be >= 1, got {self.k}")
        if list(self.nodes) != sorted(set(self.nodes)):
            raise ValueError("nodes must be sorted and free of duplicates")
        known = set(self.nodes)
        for (origin, dest), weight in self.edges.items():
            if origin == dest:
                raise ValueError(f"self-loop on {origin!r}")
            if origin not in known or dest not in known:
                raise ValueError(f"edge ({origin!r}, {dest!r}) references unknown node")
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ValueError(f"edge ({origin!r}, {dest!r}) has non-positive weight {weight!r}")

    @classmethod
    def build(
        cls,
        edges: dict[tuple[str, str], int],
        nodes: tuple[str, ...] | list[str] | None = None,
        label: str = "",
    ) -> "MobilityGraph":
        """Construct a graph, deriving the node set from edges if omitted."""
        names: set[str] = set(nodes or ())
        for origin, dest in edges:
            names.add(origin)
            names.add(dest)
        return cls(tuple(sorted(names)), dict(edges), label)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    @cached_property
    def position(self) -> dict[str, int]:
        """Country code -> position in the sorted node tuple."""
        return {code: i for i, code in enumerate(self.nodes)}

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Node positions (sources, destinations) of the arcs, sorted by endpoint pair."""
        position = self.position
        pairs = sorted(self.edges)
        src = np.array([position[o] for o, _ in pairs], dtype=np.intp)
        dst = np.array([position[d] for _, d in pairs], dtype=np.intp)
        return _read_only(src), _read_only(dst)

    @cached_property
    def shortest_paths(self) -> tuple[np.ndarray, int, int, int, np.ndarray]:
        """Betweenness per node position, the sum, count and maximum of the
        geodesic distances, then the bit-packed rows of which nodes each
        source reaches; see :func:`tourflow.metrics.shortest_path_pass`."""
        from .metrics import shortest_path_pass  # metrics imports this module

        return shortest_path_pass(self)

    @cached_property
    def triad_counts(self) -> np.ndarray:
        """The 16 triad class counts in :data:`tourflow.census.TRIAD_NAMES`
        order, which the triad census and transitivity both read."""
        from .census import _census_counts  # census imports this module

        return _read_only(_census_counts(len(self.nodes), *self.arcs))

    @cached_property
    def weights(self) -> np.ndarray:
        """Dense float64 weight matrix in node order, zero for absent edges."""
        n = len(self.nodes)
        mat = np.zeros((n, n), dtype=np.float64)
        mat[self.arcs] = [float(self.edges[pair]) for pair in sorted(self.edges)]
        return _read_only(mat)


def is_country_code(code: str) -> bool:
    """True for a two-letter uppercase code (user-assigned codes allowed)."""
    return code in _COUNTRY_CODES


def _topk(graph: MobilityGraph, k: int, direction: str) -> MobilityGraph:
    """Keep each node's k heaviest edges in ``direction``, ties to the smaller partner code."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tails, heads = graph.arcs
    node, partner = (tails, heads) if direction == "out" else (heads, tails)
    # Each node's arcs, heaviest first (float64 weights, exact below 2**53),
    # ties to the smaller partner position, which follows the sorted codes;
    # then each arc's rank among its node's arcs.
    order = np.lexsort((partner, -graph.weights[tails, heads], node))
    counts = np.bincount(node, minlength=len(graph.nodes))
    rank = np.arange(len(order)) - (np.cumsum(counts) - counts)[node[order]]
    keep = np.zeros(len(order), dtype=bool)
    keep[order] = rank < k
    codes, edges = graph.nodes, graph.edges
    pairs = ((codes[o], codes[d]) for o, d in zip(tails[keep].tolist(), heads[keep].tolist()))
    kept = {pair: edges[pair] for pair in pairs}
    return MobilityGraph(graph.nodes, kept, graph.label, direction, k)


def topk_out(graph: MobilityGraph, k: int) -> MobilityGraph:
    """Keep each node's k highest-weight outgoing edges.

    Ties on weight are resolved toward the lexicographically smaller
    destination code.  Nodes with fewer than k outgoing edges keep them
    all.

    Args:
        graph: the full mobility graph.
        k: number of edges retained per origin, >= 1.

    Returns:
        A :class:`MobilityGraph` with ``direction="out"`` and ``k`` over
        the same node set; a node whose every edge was pruned becomes
        isolated.
    """
    return _topk(graph, k, "out")


def topk_in(graph: MobilityGraph, k: int) -> MobilityGraph:
    """Keep each node's k highest-weight incoming edges.

    Ties on weight are resolved toward the lexicographically smaller
    origin code.  Nodes with fewer than k incoming edges keep them all.
    """
    return _topk(graph, k, "in")


def sorted_edges(graph: MobilityGraph) -> list[tuple[str, str, int]]:
    """Edges as (origin, destination, weight), sorted by endpoint pair."""
    return sorted((o, d, w) for (o, d), w in graph.edges.items())


def _to_csv(graph: MobilityGraph) -> str:
    lines = [("# nodes: " + " ".join(graph.nodes)).rstrip(), "origin,destination,count"]
    for origin, dest, weight in sorted_edges(graph):
        lines.append(f"{origin},{dest},{weight}")
    return "\n".join(lines) + "\n"


def _to_dot(graph: MobilityGraph) -> str:
    name = (graph.label or "mobility").replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{name}" {{']
    for code in graph.nodes:
        lines.append(f'  "{code}";')
    for origin, dest, weight in sorted_edges(graph):
        lines.append(f'  "{origin}" -> "{dest}" [weight={weight}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_graphml(graph: MobilityGraph) -> str:
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"'
        ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
        ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
        '  <key id="d0" for="edge" attr.name="weight" attr.type="long"/>',
        '  <graph edgedefault="directed">',
    ]
    for code in graph.nodes:
        lines.append(f'    <node id="{escape(code)}"/>')
    for origin, dest, weight in sorted_edges(graph):
        lines.append(
            f'    <edge source="{escape(origin)}" target="{escape(dest)}">'
            f'<data key="d0">{weight}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def export_graph(graph: MobilityGraph, fmt: str) -> bytes:
    """Serialize a graph to one of ``csv``, ``dot`` or ``graphml``.

    All three formats list nodes and edges in sorted order, so equal
    graphs always produce byte-identical output.  The CSV flavour
    carries the node set in a leading ``# nodes:`` comment line, which
    lets a round-trip through :func:`tourflow.ingest.parse_flow_matrix`
    preserve isolated nodes.
    """
    if fmt == "csv":
        return _to_csv(graph).encode("utf-8")
    if fmt == "dot":
        return _to_dot(graph).encode("utf-8")
    if fmt == "graphml":
        return _to_graphml(graph).encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
