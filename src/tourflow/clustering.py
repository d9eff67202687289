"""Affinity distances and average-linkage hierarchical clustering.

Distances come from normalising the weight matrix of a Top-k subgraph:
rows for an Out subgraph (where does a country's outflow go), columns
for an In subgraph (where does its inflow come from).  The distance is
one minus the normalised affinity, so absent flows sit at the maximum
distance of 1.  Average linkage operates on the symmetrised matrix
(d + d^T) / 2, held as one dense slot matrix, via the Lance-Williams
update: each merge is one O(n^2) numpy scan plus O(n) updates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import MobilityGraph
from .metrics import matrix_csv, number_groups


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Pairwise affinity distances in [0, 1] over the node order."""

    countries: tuple[str, ...]
    values: np.ndarray
    normalization: str

    def to_csv(self) -> str:
        return matrix_csv("country", self.countries, self.values)


def distance_matrix(subgraph: MobilityGraph, normalization: str | None = None) -> DistanceMatrix:
    """Distance d = 1 - n(w) from the normalised weight matrix.

    ``normalization`` defaults to ``"row"`` for an Out subgraph and
    ``"column"`` for an In subgraph; a plain graph, whose ``direction``
    is None, needs it given.  Rows (or columns) summing to zero
    normalise to zero, which places the country at distance 1 from
    everyone; the diagonal is 1 as well since self-loops do not exist.
    """
    if normalization is None:
        if subgraph.direction is None:
            raise ValueError("normalization is required for plain graphs")
        normalization = "row" if subgraph.direction == "out" else "column"
    if normalization not in ("row", "column"):
        raise ValueError(f"normalization must be 'row' or 'column', got {normalization!r}")
    weights = subgraph.weights
    axis = 1 if normalization == "row" else 0
    sums = weights.sum(axis=axis)
    affinity = np.zeros_like(weights)
    active = sums > 0.0
    if normalization == "row":
        affinity[active] = weights[active] / sums[active, None]
    else:
        affinity[:, active] = weights[:, active] / sums[None, active]
    return DistanceMatrix(subgraph.nodes, 1.0 - affinity, normalization)


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters ``left`` and ``right`` join.

    Singletons carry ids 0..n-1 (node order); each merge creates the
    next id n, n+1, ...  ``height`` is the average-linkage distance at
    which the pair merged.
    """

    left: int
    right: int
    height: float
    new_id: int
    size: int


def average_linkage_merges(dm: DistanceMatrix) -> tuple[Merge, ...]:
    """Full agglomeration sequence under average linkage.

    Distances live in one n x n float64 matrix indexed by slot, where
    ``ids[slot]`` is the cluster held there; the diagonal and retired
    slots hold ``inf``.  At every step the active pair with minimal
    distance merges, exact ties resolving toward the smallest (min id,
    max id) pair: as the matrix is symmetric, that is the smallest id
    among the rows reaching the minimum, paired with the smallest id
    tied with it in its row.  The merged cluster's Lance-Williams row
    replaces the left cluster's row and column and the right slot is
    retired.  Each distance stays the mean of the underlying symmetrised
    entries, rounded as a pairwise Lance-Williams update rounds it.
    """
    n = len(dm.countries)
    if n < 2:
        raise ValueError(f"average linkage needs >= 2 items, got {n}")
    dist = ((dm.values + dm.values.T) / 2.0).astype(np.float64, copy=False)
    if not np.isfinite(dist).all():
        raise ValueError("average linkage needs finite distances")
    np.fill_diagonal(dist, np.inf)
    ids = np.arange(n)
    sizes = [1] * n
    merges: list[Merge] = []
    for new_id in range(n, 2 * n - 1):
        row_min = dist.min(axis=1)
        height = row_min.min()
        tied = np.flatnonzero(row_min == height)
        left = tied[ids[tied].argmin()]
        partners = np.flatnonzero(dist[left] == height)
        right = partners[ids[partners].argmin()]
        left_size, right_size = sizes[left], sizes[right]
        joined = (left_size * dist[left] + right_size * dist[right]) / (left_size + right_size)
        dist[left] = joined
        dist[:, left] = joined
        dist[right] = np.inf
        dist[:, right] = np.inf
        merges.append(Merge(int(ids[left]), int(ids[right]), float(height), new_id,
                            left_size + right_size))
        ids[left] = new_id
        sizes[left] = left_size + right_size
    return tuple(merges)


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Flat clustering over countries.

    ``cluster`` holds each country's cluster id in ``countries`` order
    (read-only).  Cluster ids run 0, 1, ... ordered by decreasing size
    with ties broken by the smallest member position.  ``ignored`` lists
    cluster ids excluded from downstream use (see
    :func:`filter_singletons`); their members keep their ids so exports
    can show them as unassigned.
    """

    countries: tuple[str, ...]
    cluster: np.ndarray
    sizes: tuple[int, ...]
    ignored: frozenset[int] = frozenset()

    @property
    def count(self) -> int:
        return len(self.sizes)

    def to_csv(self) -> str:
        lines = ["country,cluster_id,ignored"]
        for code, cid in zip(self.countries, self.cluster.tolist()):
            flag = "true" if cid in self.ignored else "false"
            lines.append(f"{code},{cid},{flag}")
        return "\n".join(lines) + "\n"


def average_linkage(dm: DistanceMatrix, n_clusters: int) -> ClusterAssignment:
    """Cut the average-linkage dendrogram into ``n_clusters`` clusters."""
    n = len(dm.countries)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must lie in [1, {n}], got {n_clusters}")
    # Each position's current cluster id: singletons 0..n-1, then merges.
    owner = np.arange(n)
    for merge in average_linkage_merges(dm)[: n - n_clusters]:
        owner[(owner == merge.left) | (owner == merge.right)] = merge.new_id
    return ClusterAssignment(dm.countries, *number_groups(owner))


def filter_singletons(assignment: ClusterAssignment) -> ClusterAssignment:
    """Mark all single-country clusters as ignored.

    Ids and membership stay untouched, so an assignment without
    singletons comes back identical.
    """
    singles = frozenset(cid for cid, size in enumerate(assignment.sizes) if size == 1)
    if not singles:
        return assignment
    return replace(assignment, ignored=assignment.ignored | singles)
