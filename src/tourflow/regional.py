"""Region-level aggregation of country flows and share comparison.

Country-to-country weights are summed into a region-by-region matrix
(intra-region cells included), normalised to shares of the grand total,
and two datasets' share matrices are compared cell-wise in percentage
points.  The default region map ships with the package and assigns each
supported country to one of the six continents.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ParseError
from .graph import MobilityGraph, is_country_code
from .ingest import read_table
from .metrics import matrix_csv


@dataclass(frozen=True)
class RegionMap:
    """Country code -> region name, with a fixed region order.

    Regions are ordered by first appearance in the source file, so the
    matrix layout is reproducible.
    """

    regions: tuple[str, ...]
    assignment: dict[str, str]

    @classmethod
    def from_csv(cls, source: str | Path | IO[str]) -> "RegionMap":
        """Read a ``country,region`` CSV; blank and ``#`` lines are skipped."""
        regions: list[str] = []
        assignment: dict[str, str] = {}
        with read_table(source, "region map", ("country", "region")) as reader:
            for line, row in reader:
                if len(row) != 2:
                    raise ParseError(f"region map line {line} has {len(row)} fields, expected 2")
                country, region = row[0].strip(), row[1].strip()
                if not is_country_code(country):
                    raise ParseError(f"invalid country code {country!r} in region map line {line}")
                if not region:
                    raise ParseError(f"empty region name in region map line {line}")
                if country in assignment:
                    raise ParseError(f"country {country} mapped twice in region map line {line}")
                if region not in regions:
                    regions.append(region)
                assignment[country] = region
        if not assignment:
            raise ParseError("region map contains no countries")
        return cls(tuple(regions), assignment)

    @classmethod
    def default(cls) -> "RegionMap":
        """The packaged six-continent map."""
        text = resources.files("tourflow.data").joinpath("continents.csv").read_text("utf-8")
        return cls.from_csv(io.StringIO(text))

    def check_covers(self, codes: Iterable[str]) -> None:
        """Raise ValueError naming every code that has no region."""
        unmapped = sorted(code for code in codes if code not in self.assignment)
        if unmapped:
            raise ValueError(f"countries missing from the region map: {', '.join(unmapped)}")


@dataclass(frozen=True, eq=False)
class RegionalFlowMatrix:
    """Square region-by-region flow matrix.

    ``mode`` is ``"raw"`` (integer weight sums), ``"share"`` (cells sum
    to 1) or ``"diff"`` (percentage-point differences of two share
    matrices, cells sum to 0).
    """

    regions: tuple[str, ...]
    values: np.ndarray
    mode: str

    def to_csv(self) -> str:
        spec = "d" if self.mode == "raw" else ".12g"
        return matrix_csv("region", self.regions, self.values, spec)


def regional_flows(graph: MobilityGraph, region_map: RegionMap) -> RegionalFlowMatrix:
    """Sum edge weights into origin-region x destination-region cells.

    Every node of the graph must be mapped; intra-region flows land on
    the diagonal.  The grand total equals the graph's total weight
    exactly (integer arithmetic).
    """
    region_map.check_covers(graph.nodes)
    position = {region: i for i, region in enumerate(region_map.regions)}
    region = np.array([position[region_map.assignment[code]] for code in graph.nodes],
                      dtype=np.intp)
    size = len(region_map.regions)
    values = np.zeros((size, size), dtype=np.int64)
    src, dst = graph.arcs
    np.add.at(values, (region[src], region[dst]), graph.arc_weights)
    return RegionalFlowMatrix(region_map.regions, values, "raw")


def to_shares(matrix: RegionalFlowMatrix) -> RegionalFlowMatrix:
    """Divide every cell by the grand total; result sums to 1."""
    if matrix.mode != "raw":
        raise ValueError(f"to_shares expects a raw matrix, got mode {matrix.mode!r}")
    total = int(matrix.values.sum())
    if total <= 0:
        raise ValueError("cannot normalise an all-zero flow matrix")
    return RegionalFlowMatrix(matrix.regions, matrix.values / float(total), "share")


def share_diff(a: RegionalFlowMatrix, b: RegionalFlowMatrix) -> RegionalFlowMatrix:
    """Cell-wise share difference 100 * (a - b), in percentage points.

    Negative cells mean the first dataset carries a smaller share of
    the flow than the second.
    """
    if a.mode != "share" or b.mode != "share":
        raise ValueError("share_diff expects two share matrices")
    if a.regions != b.regions:
        raise ValueError("share matrices cover different region lists")
    return RegionalFlowMatrix(a.regions, 100.0 * (a.values - b.values), "diff")


def mean_abs_share_diff(a: RegionalFlowMatrix, b: RegionalFlowMatrix) -> dict[str, float]:
    """Average absolute percentage-point difference, in two variants.

    ``all_cells`` averages over the full matrix; ``active_cells`` only
    over cells where at least one dataset has flow, since a matrix can
    contain structurally null cells that would dilute the mean.
    """
    diff = share_diff(a, b)
    magnitudes = np.abs(diff.values)
    active = (a.values + b.values) > 0.0
    return {
        "all_cells": float(magnitudes.mean()),
        "active_cells": float(magnitudes[active].mean()) if active.any() else 0.0,
    }
