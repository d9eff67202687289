"""Weighted directed country-to-country graphs and Top-k subgraph extraction.

The central type is :class:`MobilityGraph`: nodes are ISO-3166-like
two-letter country codes, and each arc ``origin -> destination`` carries
a positive integer weight (number of travellers observed on that flow).
Self-loops are excluded by construction.

Top-k filtering keeps, for every node, only its k strongest incoming
(:func:`topk_in`) or outgoing (:func:`topk_out`) arcs.  Ties on weight
are broken toward the lexicographically smaller partner code so the
result is a pure function of the input graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

# Every two-letter ASCII upper-case code, user-assigned ones included, to
# its position in sorted order.
_COUNTRY_CODES = {code: i for i, code in enumerate(
    a + b for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")}

EXPORT_FORMATS = ("csv", "dot", "graphml")


def _xml_escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped, as XML character data.

    Written out, as ``xml.sax.saxutils.escape`` would load ``urllib``,
    ``http`` and ``ssl`` into every process.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class MobilityGraph:
    """A weighted directed graph over country codes, stored as its sorted arcs.

    ``nodes`` holds sorted two-letter upper-case codes, isolated ones
    too: at most 676 nodes, as the null model's chain kernel needs.
    ``arcs`` holds the node positions (sources, destinations) of the
    arcs, sorted by endpoint pair, and ``arc_weights`` their int64
    weights, each >= 1; all three arrays are read-only.  The constructor
    takes these arrays, as :func:`tourflow.ingest.parse_flow_matrix` and
    Top-k extraction give them; :meth:`build` makes a graph from a
    mapping, which ``edges`` gives back as a view for callers.  The
    pipeline itself, exporters included, reads only the arrays.

    A Top-k subgraph (see :func:`topk_out` and :func:`topk_in`) records
    which endpoint was constrained in ``direction``: ``"in"`` means every
    node kept at most ``k`` incoming edges, ``"out"`` at most ``k``
    outgoing ones.  Both are None for a full graph.

    The weight matrix, shortest-path pass and triad census are built
    from the arcs on first use and cached, read-only.
    """

    nodes: tuple[str, ...]
    arcs: tuple[np.ndarray, np.ndarray]
    arc_weights: np.ndarray
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
        if bad := [code for code in self.nodes if code not in _COUNTRY_CODES]:
            raise ValueError(f"node {bad[0]!r} is not a two-letter upper-case code")
        n = len(self.nodes)
        src, dst = (_read_only(np.asarray(end, dtype=np.intp)) for end in self.arcs)
        weights = _read_only(np.asarray(self.arc_weights, dtype=np.int64))
        object.__setattr__(self, "arcs", (src, dst))
        object.__setattr__(self, "arc_weights", weights)
        if not src.shape == dst.shape == weights.shape == (src.size,):
            raise ValueError("arcs and arc_weights must be 1-d arrays of one length")
        if ((src < 0) | (src >= n) | (dst < 0) | (dst >= n)).any():
            raise ValueError("an arc references an unknown node")
        if (src == dst).any():
            raise ValueError(f"self-loop on {self.nodes[src[src == dst][0]]!r}")
        if (np.diff(src * n + dst) <= 0).any():
            raise ValueError("arcs must be sorted by endpoint pair, without duplicates")
        if (weights < 1).any():
            raise ValueError("every arc weight must be >= 1")

    @classmethod
    def build(cls, edges: Mapping[tuple[str, str], int], nodes: Iterable[str] | None = None,
              label: str = "") -> MobilityGraph:
        """The graph of an ``(origin, destination) -> weight`` mapping over
        ``nodes`` and every endpoint; each weight is a Python int >= 1, and
        they total at most 2**53, which keeps every sum of them exact."""
        codes = tuple(sorted({*(nodes or ()), *(code for pair in edges for code in pair)}))
        position = {code: i for i, code in enumerate(codes)}
        pairs = sorted(edges)
        weights = [edges[pair] for pair in pairs]
        for pair, weight in zip(pairs, weights):
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ValueError(f"edge {pair!r} has non-positive weight {weight!r}")
        if sum(weights) > 2**53:
            raise ValueError("edge weights total more than 2**53")
        arcs = np.array([[position[o] for o, _ in pairs], [position[d] for _, d in pairs]], np.intp)
        return cls(codes, tuple(arcs), np.array(weights, dtype=np.int64), label)

    def __reduce__(self) -> tuple:
        # Rebuilt by the constructor: the arrays come back read-only, the caches empty.
        return type(self), (self.nodes, self.arcs, self.arc_weights, self.label, self.direction, self.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MobilityGraph):
            return NotImplemented
        same = (self.nodes, self.label, self.direction, self.k) == (
            other.nodes, other.label, other.direction, other.k)
        return same and all(map(np.array_equal, (*self.arcs, self.arc_weights),
                                (*other.arcs, other.arc_weights)))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.arc_weights)

    @property
    def total_weight(self) -> int:
        return sum(self.arc_weights.tolist())

    @cached_property
    def edges(self) -> Mapping[tuple[str, str], int]:
        """``(origin, destination) -> weight``, read-only, in sorted pair order."""
        return MappingProxyType({(o, d): w for o, d, w in _arc_rows(self)})

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
        mat[self.arcs] = self.arc_weights
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
    # Each node's arcs, heaviest first, ties to the smaller partner position (the
    # sorted codes' order); then each arc's rank among its node's arcs.
    order = np.lexsort((partner, -graph.arc_weights, node))
    counts = np.bincount(node, minlength=len(graph.nodes))
    rank = np.arange(len(order)) - (np.cumsum(counts) - counts)[node[order]]
    keep = np.zeros(len(order), dtype=bool)
    keep[order] = rank < k
    return MobilityGraph(graph.nodes, (tails[keep], heads[keep]), graph.arc_weights[keep],
                         graph.label, direction, k)


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


def _arc_rows(graph: MobilityGraph) -> Iterator[tuple[str, str, int]]:
    """The origin code, destination code and weight of each arc, in sorted pair order."""
    codes, (src, dst) = graph.nodes, graph.arcs
    return ((codes[o], codes[d], w)
            for o, d, w in zip(src.tolist(), dst.tolist(), graph.arc_weights.tolist()))


def _to_csv(graph: MobilityGraph) -> str:
    lines = [("# nodes: " + " ".join(graph.nodes)).rstrip(), "origin,destination,count"]
    lines += [f"{origin},{dest},{weight}" for origin, dest, weight in _arc_rows(graph)]
    return "\n".join(lines) + "\n"


def _to_dot(graph: MobilityGraph) -> str:
    name = (graph.label or "mobility").replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{name}" {{']
    lines += [f'  "{code}";' for code in graph.nodes]
    lines += [f'  "{o}" -> "{d}" [weight={w}];' for o, d, w in _arc_rows(graph)]
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
    lines += [f'    <node id="{_xml_escape(code)}"/>' for code in graph.nodes]
    lines += [f'    <edge source="{_xml_escape(origin)}" target="{_xml_escape(dest)}">'
              f'<data key="d0">{weight}</data></edge>'
              for origin, dest, weight in _arc_rows(graph)]
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
    writers = {"csv": _to_csv, "dot": _to_dot, "graphml": _to_graphml}
    if fmt not in writers:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    return writers[fmt](graph).encode("utf-8")
