"""
Building a mobility graph from raw check-ins
=============================================

Synthesizes a small check-in log, infers each user's home country,
drops countries below the activity threshold and builds the weighted
digraph where w(i -> j) counts distinct residents of i seen in j.
"""

import io
import random

from tourflow import (
    build_mobility_graph,
    export_graph,
    filter_countries,
    infer_homes,
    parse_checkins,
)

random.seed(4)

# Fake log: 300 users, each with a dominant home country and a few
# trips abroad.  Timestamps are plain unix seconds.
countries = ["US", "FR", "DE", "BR", "JP", "MX"]
rows = ["user_id,country,timestamp"]
clock = 0
for user in range(300):
    home = countries[user % len(countries)]
    for _ in range(5):
        clock += 60
        rows.append(f"u{user},{home},{clock}")
    for _ in range(random.randint(0, 3)):
        clock += 60
        rows.append(f"u{user},{random.choice(countries)},{clock}")

table = parse_checkins(io.StringIO("\n".join(rows) + "\n"))
print(f"parsed {table.record_count} check-ins from {len(table.users)} users")

# Home country = country with the most check-ins per user.
homes = infer_homes(table)
print("first user home:", homes["u0"])

# Keep only countries whose total check-in count clears the threshold.
kept = filter_countries(table, threshold=100)
print("countries kept:", sorted(kept))

graph = build_mobility_graph(table, homes, kept, label="demo")
print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges, "
      f"total weight {graph.total_weight}")

# The graph serializes to CSV/DOT/GraphML; CSV round-trips losslessly.
print()
print(export_graph(graph, "csv").decode("utf-8"))
