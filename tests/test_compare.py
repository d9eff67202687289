"""Feature standardization, averaged distances, country correlations."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tourflow import (
    avg_distance_matrix,
    centrality_table,
    country_correlations,
    feature_matrix,
    scc,
    standardize,
    topk_in,
    topk_out,
)
from tourflow.compare import AveragedDistances, FeatureMatrix, _euclidean_distances
from tourflow.graph import MobilityGraph

from oracles import codes_for, random_digraph


def feature_set(g: MobilityGraph) -> list[FeatureMatrix]:
    matrices = []
    for k in (1, 2, 3):
        for build in (topk_out, topk_in):
            sg = build(g, k)
            matrices.append(feature_matrix(sg, centrality_table(sg), scc(sg)))
    return matrices


def averaged(g: MobilityGraph) -> AveragedDistances:
    return avg_distance_matrix(feature_set(g))


class TestStandardize:
    def test_columns_centered_and_scaled(self) -> None:
        rng = np.random.default_rng(1)
        values = rng.normal(3.0, 11.0, size=(20, 4))
        scaled = standardize(values)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_column_becomes_zeros(self) -> None:
        values = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        scaled = standardize(values)
        assert np.all(scaled[:, 0] == 0.0)
        assert np.allclose(scaled[:, 1].std(), 1.0)

    def test_matches_two_pass_reference(self) -> None:
        rng = np.random.default_rng(2)
        values = rng.uniform(-50, 50, size=(20, 6))
        scaled = standardize(values)
        for j in range(6):
            column = values[:, j]
            mean = sum(column) / 20
            var = sum((x - mean) ** 2 for x in column) / 20
            expected = (column - mean) / var**0.5
            assert np.allclose(scaled[:, j], expected, atol=1e-10)


class TestFeatureMatrix:
    def test_columns_and_shape(self) -> None:
        g = random_digraph(np.random.default_rng(3), 10, 0.4)
        sg = topk_out(g, 2)
        fm = feature_matrix(sg, centrality_table(sg), scc(sg))
        comp_count = scc(sg).count
        assert fm.columns[:5] == (
            "in_strength", "out_strength", "betweenness", "pagerank", "in_degree")
        assert len(fm.columns) == 5 + comp_count
        assert fm.values.shape == (10, 5 + comp_count)
        assert (fm.direction, fm.k) == ("out", 2)

    def test_in_subgraph_uses_out_degree(self) -> None:
        g = random_digraph(np.random.default_rng(4), 8, 0.4)
        sg = topk_in(g, 2)
        fm = feature_matrix(sg, centrality_table(sg), scc(sg))
        assert "out_degree" in fm.columns
        assert "in_degree" not in fm.columns

    def test_single_component_one_hot_standardizes_to_zeros(self) -> None:
        codes = codes_for(4)
        edges = {(a, b): 1 for a in codes for b in codes if a != b}
        g = MobilityGraph(codes, edges)
        sg = topk_out(g, 3)
        fm = feature_matrix(sg, centrality_table(sg), scc(sg))
        one_hot = fm.values[:, 5:]
        assert one_hot.shape == (4, 1)
        assert np.all(one_hot == 0.0)

    def test_graph_without_direction_rejected(self) -> None:
        g = random_digraph(np.random.default_rng(6), 6, 0.5)
        with pytest.raises(ValueError, match="direction"):
            feature_matrix(g, centrality_table(g), scc(g))

    def test_incomplete_table_rejected(self) -> None:
        g = random_digraph(np.random.default_rng(5), 6, 0.5)
        sg = topk_out(g, 2)
        table = centrality_table(sg)
        smaller = MobilityGraph(g.nodes[:-1], {
            p: w for p, w in g.edges.items() if g.nodes[-1] not in p})
        with pytest.raises(ValueError, match="does not cover"):
            feature_matrix(sg, table, scc(topk_out(smaller, 2)))


class TestAveragedDistances:
    def test_requires_exactly_six_tagged_matrices(self) -> None:
        g = random_digraph(np.random.default_rng(6), 8, 0.5)
        matrices = feature_set(g)
        with pytest.raises(ValueError, match="feature matrices"):
            avg_distance_matrix(matrices[:5])
        duplicated = matrices[:5] + [matrices[0]]
        with pytest.raises(ValueError, match="direction/k"):
            avg_distance_matrix(duplicated)

    def test_diagonal_zero_and_symmetric(self) -> None:
        g = random_digraph(np.random.default_rng(7), 12, 0.4)
        result = averaged(g)
        assert np.all(np.diag(result.values) == 0.0)
        assert np.allclose(result.values, result.values.T, atol=1e-12)
        assert np.all(result.values >= 0.0)

    def test_mean_of_per_subgraph_distances(self) -> None:
        g = random_digraph(np.random.default_rng(8), 15, 0.35)
        matrices = feature_set(g)
        result = avg_distance_matrix(matrices)
        total = np.zeros((15, 15))
        for fm in matrices:
            values = fm.values
            manual = np.zeros((15, 15))
            for i, j in itertools.combinations(range(15), 2):
                manual[i, j] = manual[j, i] = float(
                    np.sqrt(((values[i] - values[j]) ** 2).sum()))
            total += manual
        assert np.allclose(result.values, total / 6.0, atol=1e-9)

    def test_gram_trick_matches_pairwise_loop(self) -> None:
        rng = np.random.default_rng(9)
        values = rng.normal(size=(10, 7))
        fast = _euclidean_distances(values)
        for i in range(10):
            for j in range(10):
                expected = float(np.sqrt(((values[i] - values[j]) ** 2).sum()))
                assert fast[i, j] == pytest.approx(expected, abs=1e-9)

    def test_csv_header_lists_countries(self) -> None:
        g = random_digraph(np.random.default_rng(10), 5, 0.6)
        text = averaged(g).to_csv()
        assert text.splitlines()[0] == "country," + ",".join(codes_for(5))


class TestCountryCorrelations:
    def test_self_comparison_is_rho_one(self) -> None:
        g = random_digraph(np.random.default_rng(11), 10, 0.4)
        result = country_correlations(averaged(g), averaged(g))
        for code in result.countries:
            assert result.rho[code] == pytest.approx(1.0, abs=1e-9)
            assert result.compared_entries[code] == 9

    def test_affine_transform_of_rows_keeps_rho(self) -> None:
        g = random_digraph(np.random.default_rng(12), 10, 0.4)
        base = averaged(g)
        shifted = AveragedDistances(base.countries, 3.0 * base.values + 1.0)
        result = country_correlations(base, shifted)
        for code in result.countries:
            assert result.rho[code] == pytest.approx(1.0, abs=1e-9)

    def test_too_few_common_countries_rejected(self) -> None:
        a = AveragedDistances(("AA", "AB"), np.zeros((2, 2)))
        b = AveragedDistances(("AA", "AB"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="common countries"):
            country_correlations(a, b)

    def test_constant_rows_flagged_undefined(self) -> None:
        a = AveragedDistances(codes_for(4), np.zeros((4, 4)))
        rng = np.random.default_rng(13)
        values = np.abs(rng.normal(size=(4, 4)))
        np.fill_diagonal(values, 0.0)
        b = AveragedDistances(codes_for(4), (values + values.T) / 2)
        result = country_correlations(a, b)
        assert all(result.rho[code] is None for code in result.countries)
        lines = result.to_csv().splitlines()
        assert lines[0] == "country,rho,flag"
        assert all(ln.endswith(",undefined") for ln in lines[1:])

    def test_matches_two_pass_pearson(self) -> None:
        g1 = random_digraph(np.random.default_rng(14), 12, 0.4)
        g2 = random_digraph(np.random.default_rng(15), 12, 0.45)
        a, b = averaged(g1), averaged(g2)
        result = country_correlations(a, b)
        for i, code in enumerate(result.countries):
            xs = [a.values[i, j] for j in range(12) if j != i]
            ys = [b.values[i, j] for j in range(12) if j != i]
            mx, my = sum(xs) / 11, sum(ys) / 11
            num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            den = (sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)) ** 0.5
            assert result.rho[code] == pytest.approx(num / den, abs=1e-12)

    def test_common_subset_is_intersection(self) -> None:
        rng = np.random.default_rng(16)
        codes_a = codes_for(6)
        codes_b = codes_for(8)[2:]
        mat_a = np.abs(rng.normal(size=(6, 6)))
        mat_b = np.abs(rng.normal(size=(6, 6)))
        np.fill_diagonal(mat_a, 0.0)
        np.fill_diagonal(mat_b, 0.0)
        a = AveragedDistances(codes_a, (mat_a + mat_a.T) / 2)
        b = AveragedDistances(codes_b, (mat_b + mat_b.T) / 2)
        result = country_correlations(a, b)
        assert result.countries == tuple(sorted(set(codes_a) & set(codes_b)))
        assert result.common_count == 4

    def test_uniform_weight_scaling_keeps_rho(self) -> None:
        g = random_digraph(np.random.default_rng(17), 10, 0.4)
        scaled = MobilityGraph(g.nodes, {p: w * 9 for p, w in g.edges.items()})
        base = country_correlations(averaged(g), averaged(g))
        cross = country_correlations(averaged(g), averaged(scaled))
        for code in base.countries:
            assert cross.rho[code] == pytest.approx(base.rho[code], abs=1e-9)
