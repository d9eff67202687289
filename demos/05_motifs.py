"""
Triad census and motif detection
=================================

Counts the sixteen directed triad classes of a graph seeded with
feed-forward loops, then scores the thirteen connected classes against
a degree-preserving rewired null model.
"""

from tourflow import MobilityGraph, motif_zscores, rewire, triad_census

# Eight disjoint feed-forward loops (a -> b -> c plus the shortcut
# a -> c): the archetypal 030T triad.
codes = tuple(f"{a}{b}" for a in "ABCDEFGH" for b in "XYZ")
edges = {}
for t in range(8):
    a, b, c = codes[3 * t], codes[3 * t + 1], codes[3 * t + 2]
    edges.update({(a, b): 1, (b, c): 1, (a, c): 1})
graph = MobilityGraph.build(edges, codes)

census = triad_census(graph)
nonzero = {name: count for name, count in census.counts.items() if count}
print("triad census (nonzero classes):", nonzero)

# One rewired sample: same in/out degree sequences, edges shuffled.
shuffled = rewire(graph, seed=1)
print("rewired 030T count:", triad_census(shuffled).counts["030T"])

# The ensemble z-score shows how far the real count sits above the
# degree-matched expectation.
scores = motif_zscores(graph, ensemble_size=200, seed=0)
print()
print("class  real   null mean   z")
for name in scores.classes:
    z = scores.z[name]
    z_text = f"{z:7.2f}" if z is not None else "   n/a"
    print(f"{name:5s} {scores.real[name]:5d}   {scores.null_mean[name]:9.2f} {z_text}")

flags = scores.relevant()
print()
print("relevant motifs:", [name for name, on in flags.items() if on])
