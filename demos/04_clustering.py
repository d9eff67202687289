"""
Affinity distances and hierarchical clustering
===============================================

Turns a Top-3 Out subgraph into a distance matrix (1 minus the row-
normalized affinity), walks the average-linkage merge sequence and cuts
it into flat clusters with singletons filtered out.
"""

import numpy as np

from tourflow import (
    MobilityGraph,
    average_linkage,
    average_linkage_merges,
    distance_matrix,
    filter_singletons,
    topk_out,
)

rng = np.random.default_rng(31)

# Two dense travel communities with one weak bridge between them.
codes = tuple(f"{a}{b}" for a in "AB" for b in "ABCDE")
edges = {}
for block in (codes[:5], codes[5:]):
    for origin in block:
        for dest in block:
            if origin != dest:
                edges[(origin, dest)] = int(rng.integers(200, 400))
edges[(codes[0], codes[5])] = 5
edges[(codes[5], codes[0])] = 5
subgraph = topk_out(MobilityGraph.build(edges, codes), 3)

dm = distance_matrix(subgraph)
print(f"distance matrix over {len(dm.countries)} countries "
      f"({dm.normalization}-normalized)")

# The merge sequence records the full dendrogram bottom-up.
print()
print("first five merges (left, right -> new id at height):")
for merge in average_linkage_merges(dm)[:5]:
    print(f"  {merge.left:2d} + {merge.right:2d} -> {merge.new_id} "
          f"at {merge.height:.4f}")

assignment = filter_singletons(average_linkage(dm, 2))
cluster = dict(zip(assignment.countries, assignment.cluster.tolist()))
print()
for cid in range(assignment.count):
    members = [code for code, i in cluster.items() if i == cid]
    note = " (ignored: singleton)" if cid in assignment.ignored else ""
    print(f"cluster {cid}: {', '.join(members)}{note}")
