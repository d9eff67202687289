"""
Centralities and strongly connected components
===============================================

Ranks countries of a Top-2 Out subgraph by weighted PageRank and
betweenness, and partitions the subgraph into strongly connected
components.
"""

import numpy as np

from tourflow import MobilityGraph, centrality_table, scc, topk_out

rng = np.random.default_rng(23)

codes = tuple(f"{a}{b}" for a in "ABCD" for b in "ABCDE")
edges = {}
for origin in codes:
    for dest in codes:
        if origin != dest and rng.random() < 0.4:
            edges[(origin, dest)] = int(rng.integers(1, 500))
subgraph = topk_out(MobilityGraph.build(edges, codes), 2)

# One table carries all six measures with competition ranking
# (ties share a rank, the next rank is skipped).  Values and ranks are
# arrays in the subgraph's node order, the order of table.countries.
table = centrality_table(subgraph)
for measure in ("pagerank", "betweenness", "in_strength"):
    ranked = sorted(zip(table.ranks[measure].tolist(), table.countries,
                        table.values[measure].tolist()))
    top = ", ".join(f"{code}={value:.4g}" for _, code, value in ranked[:5])
    print(f"{measure:12s} top 5: {top}")

# SCC ids are ordered by component size, largest first.
components = scc(subgraph)
print()
print(f"{components.count} strongly connected components, sizes {components.sizes}")
component = dict(zip(components.countries, components.component.tolist()))
largest = [code for code, cid in component.items() if cid == 0]
print("largest component:", ", ".join(largest))
