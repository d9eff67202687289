"""
Top-k subgraphs and structural metrics
=======================================

Derives the Top-k In/Out subgraphs of a dense synthetic flow graph and
reports their structure: density, geodesics, dyads, reciprocity,
transitivity and degree centralization.
"""

import numpy as np

from tourflow import MobilityGraph, structural_report, topk_in, topk_out

rng = np.random.default_rng(11)

# Dense random flow graph over 30 two-letter codes.
codes = tuple(f"{a}{b}" for a in "ABCDE" for b in "ABCDEF")
edges = {}
for origin in codes:
    for dest in codes:
        if origin != dest and rng.random() < 0.6:
            edges[(origin, dest)] = int(rng.integers(1, 1000))
graph = MobilityGraph.build(edges, codes)
print(f"full graph: {graph.edge_count} edges")

# Top-k Out keeps each country's k heaviest outgoing edges; node count
# is preserved, so |E| = sum over nodes of min(k, out-degree).
for k in (1, 2, 3):
    out_sg = topk_out(graph, k)
    in_sg = topk_in(graph, k)
    print(f"k={k}: out edges {len(out_sg.edges)}, in edges {len(in_sg.edges)}")

report = structural_report(topk_out(graph, 3))
print()
print("Top-3 Out structure")
print(f"  density        {report.density:.4f}")
print(f"  avg geodesic   {report.avg_geodesic:.3f} (diameter {report.diameter}, "
      f"{report.unreachable_pairs} unreachable pairs)")
print(f"  avg strength   {report.avg_strength:.1f}")
print(f"  dyads          M={report.dyads.mutual} A={report.dyads.asymmetric} "
      f"N={report.dyads.null}")
print(f"  reciprocity    {report.reciprocity:.4f}")
print(f"  transitivity   {report.transitivity:.4f}")

# Centralization is measured on the direction Top-k does not cap: an
# Out subgraph concentrates in-degree on popular destinations.
print(f"  in-degree centralization {report.degree_centralization:.4f} "
      f"({report.centralization_direction})")
