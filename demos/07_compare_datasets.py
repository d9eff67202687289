"""
Multidimensional comparison of two datasets
============================================

Describes every country of each dataset by standardized features over
all six Top-k subgraphs, averages the per-subgraph euclidean distance
matrices and correlates the two datasets country by country.
"""

import numpy as np

from tourflow import (
    MobilityGraph,
    avg_distance_matrix,
    centrality_table,
    country_correlations,
    feature_matrix,
    scc,
    topk_in,
    topk_out,
)

codes = tuple(f"{a}{b}" for a in "ABCD" for b in "ABCDE")


def dataset(seed: int, noise: float) -> MobilityGraph:
    rng = np.random.default_rng(seed)
    edges = {}
    for i, origin in enumerate(codes):
        for j, dest in enumerate(codes):
            if origin != dest:
                base = 500 // (1 + (j - i) % len(codes))
                jitter = int(rng.integers(0, max(1, int(base * noise)) + 1))
                if base + jitter > 0:
                    edges[(origin, dest)] = base + jitter
    return MobilityGraph.build(edges, codes)


def averaged_distances(graph: MobilityGraph):
    matrices = []
    for k in (1, 2, 3):
        for build in (topk_out, topk_in):
            sg = build(graph, k)
            matrices.append(feature_matrix(sg, centrality_table(sg), scc(sg)))
    return avg_distance_matrix(matrices)


# Dataset b is a noisy re-observation of dataset a.
a = averaged_distances(dataset(1, noise=0.0))
b = averaged_distances(dataset(1, noise=0.3))

report = country_correlations(a, b)
defined = {code: rho for code, rho in report.rho.items() if rho is not None}
print(f"{report.common_count} common countries, {len(defined)} with defined rho")
print(f"mean rho: {sum(defined.values()) / len(defined):.4f}")

worst = sorted(defined.items(), key=lambda kv: kv[1])[:3]
print("least similar countries:",
      ", ".join(f"{code} ({rho:.3f})" for code, rho in worst))
print()
print(report.to_csv())
