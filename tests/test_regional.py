"""Regional aggregation, share normalisation and share differences."""

from __future__ import annotations

import io

import numpy as np
import pytest

from tourflow import (
    MobilityGraph,
    ParseError,
    RegionMap,
    mean_abs_share_diff,
    regional_flows,
    share_diff,
    to_shares,
)
from tourflow.regional import RegionalFlowMatrix


REGION_ORDER = ("North America", "South America", "Europe", "Africa", "Asia", "Oceania")

# Inter-regional tourist totals for one observed season; used as a
# realistic fixture for share arithmetic.
SEASON_FLOWS = np.array(
    [
        [6406, 332, 930, 0, 1, 0],
        [1690, 3104, 0, 0, 0, 0],
        [566, 0, 9627, 0, 2461, 0],
        [46, 0, 99, 23, 204, 0],
        [560, 0, 3124, 5, 15989, 0],
        [113, 0, 0, 0, 97, 79],
    ],
    dtype=np.int64,
)


def season_matrix() -> RegionalFlowMatrix:
    return RegionalFlowMatrix(REGION_ORDER, SEASON_FLOWS.copy(), "raw")


class TestRegionMap:
    def test_default_map_covers_all_countries(self) -> None:
        region_map = RegionMap.default()
        assert len(region_map.assignment) == 117
        assert region_map.regions == REGION_ORDER
        assert region_map.assignment["FR"] == "Europe"
        assert region_map.assignment["BR"] == "South America"
        assert region_map.assignment["AU"] == "Oceania"
        assert region_map.assignment["US"] == "North America"
        assert region_map.assignment["EG"] == "Africa"
        assert region_map.assignment["JP"] == "Asia"

    def test_regions_ordered_by_first_appearance(self) -> None:
        text = "country,region\nZA,Africa\nFR,Europe\nEG,Africa\n"
        region_map = RegionMap.from_csv(io.StringIO(text))
        assert region_map.regions == ("Africa", "Europe")

    def test_bad_header_rejected(self) -> None:
        with pytest.raises(ParseError, match="header"):
            RegionMap.from_csv(io.StringIO("state,region\nFR,Europe\n"))

    def test_duplicate_country_rejected(self) -> None:
        text = "country,region\nFR,Europe\nFR,Africa\n"
        with pytest.raises(ParseError, match="mapped twice"):
            RegionMap.from_csv(io.StringIO(text))

    def test_invalid_code_rejected(self) -> None:
        with pytest.raises(ParseError, match="country code"):
            RegionMap.from_csv(io.StringIO("country,region\nFRA,Europe\n"))

    def test_error_names_the_physical_line(self) -> None:
        text = "# regions\ncountry,region\n\nFR,Europe\n# more\nFRA,Europe\n"
        with pytest.raises(ParseError, match="region map line 6$"):
            RegionMap.from_csv(io.StringIO(text))

    def test_empty_map_rejected(self) -> None:
        with pytest.raises(ParseError, match="no countries"):
            RegionMap.from_csv(io.StringIO("country,region\n"))


class TestRegionalFlows:
    def test_single_intra_european_edge(self) -> None:
        g = MobilityGraph.build({("FR", "DE"): 7})
        matrix = regional_flows(g, RegionMap.default())
        i = matrix.regions.index("Europe")
        assert matrix.values[i, i] == 7
        assert matrix.values.sum() == 7

    def test_cross_regional_cells(self) -> None:
        g = MobilityGraph.build({("US", "BR"): 5, ("BR", "US"): 2})
        matrix = regional_flows(g, RegionMap.default())
        na = matrix.regions.index("North America")
        sa = matrix.regions.index("South America")
        assert matrix.values[na, sa] == 5
        assert matrix.values[sa, na] == 2

    def test_unmapped_country_rejected(self) -> None:
        region_map = RegionMap.from_csv(io.StringIO("country,region\nFR,Europe\n"))
        g = MobilityGraph.build({("FR", "DE"): 1})
        with pytest.raises(ValueError, match="missing from the region map"):
            regional_flows(g, region_map)

    def test_aggregation_matches_manual_tally(self) -> None:
        region_map = RegionMap.default()
        codes = tuple(sorted(region_map.assignment))
        rng = np.random.default_rng(77)
        edges: dict[tuple[str, str], int] = {}
        for _ in range(4000):
            a, b = rng.choice(len(codes), size=2, replace=False)
            edges[(codes[a], codes[b])] = int(rng.integers(1, 40))
        g = MobilityGraph.build(edges, codes)
        matrix = regional_flows(g, region_map)
        expected: dict[tuple[str, str], int] = {}
        for (origin, dest), w in edges.items():
            key = (region_map.assignment[origin], region_map.assignment[dest])
            expected[key] = expected.get(key, 0) + w
        for r, origin_region in enumerate(matrix.regions):
            for s, dest_region in enumerate(matrix.regions):
                assert matrix.values[r, s] == expected.get((origin_region, dest_region), 0)
        assert int(matrix.values.sum()) == g.total_weight

    def test_raw_csv_is_integral(self) -> None:
        text = season_matrix().to_csv()
        lines = text.splitlines()
        assert lines[0] == "region," + ",".join(REGION_ORDER)
        assert lines[1].split(",")[1] == "6406"

    def test_raw_cells_keep_their_format_spec_bytes(self) -> None:
        # to_csv formats raw cells with %d, which would truncate a float cell.
        region_map = RegionMap.default()
        codes = tuple(sorted(region_map.assignment))
        rng = np.random.default_rng(11)
        edges = {(codes[a], codes[b]): int(rng.integers(1, 10**12))
                 for a, b in rng.integers(0, len(codes), (2000, 2)) if a != b}
        matrix = regional_flows(MobilityGraph.build(edges, codes), region_map)
        assert matrix.values.dtype.kind == "i"
        expected = ["region," + ",".join(matrix.regions)] + [
            region + "," + ",".join(f"{v:d}" for v in row)
            for region, row in zip(matrix.regions, matrix.values)]
        assert matrix.to_csv() == "\n".join(expected) + "\n"


class TestShares:
    def test_single_cell_share_is_one(self) -> None:
        g = MobilityGraph.build({("FR", "DE"): 9})
        shares = to_shares(regional_flows(g, RegionMap.default()))
        i = shares.regions.index("Europe")
        assert shares.values[i, i] == pytest.approx(1.0, abs=1e-12)
        assert shares.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_cells_split_evenly(self) -> None:
        g = MobilityGraph.build({("US", "BR"): 4, ("FR", "DE"): 4})
        shares = to_shares(regional_flows(g, RegionMap.default()))
        assert np.count_nonzero(shares.values == 0.5) == 2

    def test_season_fixture_shares(self) -> None:
        shares = to_shares(season_matrix())
        total = float(SEASON_FLOWS.sum())
        for r in range(6):
            for s in range(6):
                assert shares.values[r, s] == pytest.approx(
                    SEASON_FLOWS[r, s] / total, abs=1e-12)
        assert shares.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_share_of_raw_only(self) -> None:
        shares = to_shares(season_matrix())
        with pytest.raises(ValueError, match="raw matrix"):
            to_shares(shares)

    def test_zero_matrix_rejected(self) -> None:
        empty = RegionalFlowMatrix(REGION_ORDER, np.zeros((6, 6), dtype=np.int64), "raw")
        with pytest.raises(ValueError, match="all-zero"):
            to_shares(empty)


class TestShareDiff:
    def test_identical_matrices_diff_to_zero(self) -> None:
        shares = to_shares(season_matrix())
        diff = share_diff(shares, shares)
        assert np.all(diff.values == 0.0)
        assert diff.mode == "diff"

    def test_two_percentage_point_example(self) -> None:
        a = RegionalFlowMatrix(("X", "Y"), np.array([[0.6, 0.0], [0.0, 0.4]]), "share")
        b = RegionalFlowMatrix(("X", "Y"), np.array([[0.58, 0.0], [0.0, 0.42]]), "share")
        diff = share_diff(a, b)
        assert diff.values[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert diff.values[1, 1] == pytest.approx(-2.0, abs=1e-12)

    def test_cells_sum_to_zero(self) -> None:
        rng = np.random.default_rng(88)
        raw_a = RegionalFlowMatrix(REGION_ORDER, rng.integers(0, 500, (6, 6)), "raw")
        raw_b = RegionalFlowMatrix(REGION_ORDER, rng.integers(0, 500, (6, 6)), "raw")
        diff = share_diff(to_shares(raw_a), to_shares(raw_b))
        assert float(diff.values.sum()) == pytest.approx(0.0, abs=1e-9)

    def test_requires_share_mode_and_matching_regions(self) -> None:
        shares = to_shares(season_matrix())
        with pytest.raises(ValueError, match="share matrices"):
            share_diff(season_matrix(), shares)
        other = RegionalFlowMatrix(tuple(reversed(REGION_ORDER)), shares.values, "share")
        with pytest.raises(ValueError, match="different region lists"):
            share_diff(shares, other)

    def test_mean_abs_variants(self) -> None:
        a_raw = season_matrix()
        b_values = SEASON_FLOWS.copy()
        b_values[0, 0] += 500
        b_raw = RegionalFlowMatrix(REGION_ORDER, b_values, "raw")
        a, b = to_shares(a_raw), to_shares(b_raw)
        result = mean_abs_share_diff(a, b)
        diff = np.abs(100.0 * (a.values - b.values))
        active = (a.values + b.values) > 0.0
        assert result["all_cells"] == pytest.approx(diff.mean(), abs=1e-12)
        assert result["active_cells"] == pytest.approx(diff[active].mean(), abs=1e-12)
        assert result["active_cells"] >= result["all_cells"]

    def test_region_order_permutation_equivariance(self) -> None:
        # The same assignment listed in a different row order permutes
        # the matrix axes without changing any cell value.
        default = RegionMap.default()
        rows = sorted(default.assignment.items(), key=lambda kv: (kv[1], kv[0]))
        text = "country,region\n" + "".join(f"{c},{r}\n" for c, r in reversed(rows))
        permuted = RegionMap.from_csv(io.StringIO(text))
        g = MobilityGraph.build(
            {("US", "BR"): 5, ("FR", "JP"): 3, ("AU", "EG"): 2, ("DE", "FR"): 9})
        a = regional_flows(g, default)
        b = regional_flows(g, permuted)
        for r, origin_region in enumerate(a.regions):
            for s, dest_region in enumerate(a.regions):
                rb = b.regions.index(origin_region)
                sb = b.regions.index(dest_region)
                assert a.values[r, s] == b.values[rb, sb]
