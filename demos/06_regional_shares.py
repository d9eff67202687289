"""
Regional flow aggregation and share comparison
===============================================

Aggregates country-level flows onto the six continents, normalizes to
shares of the grand total and contrasts two seasons in percentage
points.
"""

import numpy as np

from tourflow import (
    MobilityGraph,
    RegionMap,
    mean_abs_share_diff,
    regional_flows,
    share_diff,
    to_shares,
)

region_map = RegionMap.default()
print(f"default map: {len(region_map.assignment)} countries, "
      f"regions {region_map.regions}")

rng = np.random.default_rng(63)
codes = tuple(sorted(region_map.assignment))


def season(seed: int) -> MobilityGraph:
    local = np.random.default_rng(seed)
    edges = {}
    for _ in range(3000):
        i, j = local.choice(len(codes), size=2, replace=False)
        edges[(codes[i], codes[j])] = int(local.integers(1, 60))
    return MobilityGraph.build(edges, codes)


summer = regional_flows(season(1), region_map)
winter = regional_flows(season(2), region_map)
print()
print("summer raw region matrix:")
print(summer.to_csv())

# Shares divide by the grand total, so both seasons are comparable
# even if absolute volumes differ.
diff = share_diff(to_shares(summer), to_shares(winter))
print("summer minus winter, percentage points (diagonal = intra-region):")
for i, region in enumerate(diff.regions):
    print(f"  {region:14s} {diff.values[i, i]:+6.2f}")

spread = mean_abs_share_diff(to_shares(summer), to_shares(winter))
print()
print(f"mean |diff| over all cells:    {spread['all_cells']:.3f} pp")
print(f"mean |diff| over active cells: {spread['active_cells']:.3f} pp")
