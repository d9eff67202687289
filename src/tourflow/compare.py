"""Cross-dataset comparison in a standardized feature space.

Each Top-k subgraph yields a per-country feature vector: in-strength,
out-strength, betweenness, PageRank, the degree in the direction Top-k
did not constrain, and a one-hot block over strongly connected
component ids.  Columns are standardized, countries are compared by
euclidean distance, the six subgraph distance matrices (Top-1..3, In
and Out) are averaged element-wise, and two datasets are finally
related through the per-country Pearson correlation of their averaged
distance rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import MobilityGraph, _read_only
from .metrics import CentralityTable, ComponentAssignment, flagged_csv, matrix_csv

NUMERIC_FEATURES = ("in_strength", "out_strength", "betweenness", "pagerank")

EXPECTED_SUBGRAPHS = frozenset(
    (direction, k) for direction in ("in", "out") for k in (1, 2, 3)
)


def standardize(values: np.ndarray) -> np.ndarray:
    """Center and scale columns to mean 0, variance 1 (population).

    Zero-variance columns become all zeros instead of being dropped, so
    row dimensions stay aligned across countries.
    """
    means = values.mean(axis=0)
    stds = values.std(axis=0)
    centered = values - means
    scaled = np.zeros_like(centered)
    active = stds > 0.0
    scaled[:, active] = centered[:, active] / stds[active]
    return scaled


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Standardized per-country features of one Top-k subgraph."""

    countries: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray
    direction: str
    k: int


def feature_matrix(
    subgraph: MobilityGraph,
    table: CentralityTable,
    components: ComponentAssignment,
) -> FeatureMatrix:
    """Assemble and standardize the feature block of one subgraph.

    The fifth numeric column is the in-degree for an Out subgraph and
    the out-degree for an In subgraph (the constrained direction's
    degree is capped at k and carries no signal).  Component membership
    enters as one one-hot column per component id, singletons included.
    The subgraph must be a Top-k one: a graph whose ``direction`` is None
    raises ValueError.
    """
    if subgraph.direction is None:
        raise ValueError("feature_matrix needs a Top-k subgraph, but the graph's direction is None")
    codes = subgraph.nodes
    if not table.countries == components.countries == codes:
        raise ValueError("centrality table or component assignment does not cover "
                         "the subgraph's countries in node order")
    degree_measure = "in_degree" if subgraph.direction == "out" else "out_degree"
    measures = NUMERIC_FEATURES + (degree_measure,)
    comp_count = components.count
    one_hot = np.eye(comp_count)[components.component]
    raw = np.column_stack([table.values[measure] for measure in measures] + [one_hot])
    columns = measures + tuple(f"scc_{cid}" for cid in range(comp_count))
    return FeatureMatrix(codes, columns, standardize(raw), subgraph.direction, subgraph.k)


@dataclass(frozen=True, eq=False)
class AveragedDistances:
    """Element-wise mean of per-subgraph euclidean distance matrices."""

    countries: tuple[str, ...]
    values: np.ndarray

    def to_csv(self) -> str:
        return matrix_csv("country", self.countries, self.values)


def _euclidean_distances(values: np.ndarray) -> np.ndarray:
    squares = (values * values).sum(axis=1)
    gram = values @ values.T
    spread = squares[:, None] + squares[None, :] - 2.0 * gram
    np.maximum(spread, 0.0, out=spread)
    distances = np.sqrt(spread)
    np.fill_diagonal(distances, 0.0)
    return distances


def avg_distance_matrix(matrices: Sequence[FeatureMatrix]) -> AveragedDistances:
    """Average the six per-subgraph distance matrices element-wise.

    Expects exactly one matrix per (direction, k) combination for
    k in 1..3, all over the same countries, as a dataset's Top-k
    subgraphs are.  Distances are computed within each subgraph's
    standardized space and then averaged.
    """
    if len(matrices) != len(EXPECTED_SUBGRAPHS):
        raise ValueError(f"expected {len(EXPECTED_SUBGRAPHS)} feature matrices, got {len(matrices)}")
    tags = {(fm.direction, fm.k) for fm in matrices}
    if tags != EXPECTED_SUBGRAPHS:
        raise ValueError(f"expected one matrix per direction/k pair, got {sorted(tags)}")
    codes = matrices[0].countries
    if any(fm.countries != codes for fm in matrices):
        raise ValueError("feature matrices cover different countries")
    total = np.zeros((len(codes), len(codes)), dtype=np.float64)
    for fm in matrices:
        total += _euclidean_distances(fm.values)
    return AveragedDistances(codes, total / float(len(matrices)))


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Per-country Pearson correlation between two datasets.

    ``rho`` is a read-only array in ``countries`` order, NaN for
    countries whose distance rows are constant; each is
    taken over the ``common_count - 1`` off-diagonal entries of the
    country's row.
    """

    countries: tuple[str, ...]
    rho: np.ndarray

    @property
    def common_count(self) -> int:
        return len(self.countries)

    def to_csv(self) -> str:
        return flagged_csv("country,rho,flag", self.countries, self.rho)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return float((dx * dy).sum() / (sx * sy))


def country_correlations(a: AveragedDistances, b: AveragedDistances) -> CorrelationReport:
    """Correlate each common country's distance rows across datasets.

    Rows are restricted to the common countries and the diagonal
    (self-distance, zero in both) is excluded before correlating.
    Requires at least 4 common countries, so that each row keeps the 3
    entries a correlation needs.
    """
    common = sorted(set(a.countries) & set(b.countries))
    if len(common) < 4:
        raise ValueError(f"need >= 4 common countries, got {len(common)}")
    index_a = {code: i for i, code in enumerate(a.countries)}
    index_b = {code: i for i, code in enumerate(b.countries)}
    rows_a = np.array([index_a[code] for code in common], dtype=np.intp)
    rows_b = np.array([index_b[code] for code in common], dtype=np.intp)
    sub_a = a.values[np.ix_(rows_a, rows_a)]
    sub_b = b.values[np.ix_(rows_b, rows_b)]
    mask = ~np.eye(len(common), dtype=bool)
    rho = np.array([_pearson(row_a[keep], row_b[keep])
                    for row_a, row_b, keep in zip(sub_a, sub_b, mask)])
    return CorrelationReport(tuple(common), _read_only(rho))
