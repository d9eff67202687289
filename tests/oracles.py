"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along a different algorithmic
route than the package: exhaustive enumeration, dense linear algebra,
and from-scratch recomputation, so agreement between the two is
meaningful evidence rather than a tautology.  The serial breadth-first
searches are the exception in kind: they fix the order of every float
addition that the package's vectorised pass must reproduce exactly.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from datetime import datetime, timezone

import numpy as np

from tourflow.clustering import DistanceMatrix, Merge
from tourflow.graph import MobilityGraph
from tourflow.regional import RegionMap

# ---------------------------------------------------------------------------
# check-in fields

INT_LITERAL_RE = re.compile(r"[+-]?\d+$")
COUNTRY_CODE_RE = re.compile(r"^[A-Z]{2}$")


def regex_parse_timestamp(text: str) -> int:
    """Epoch seconds as the check-in parser defines them, told apart by a regex.

    An integer literal is what ``[+-]?\\d+$`` matches on the stripped
    text, converted by ``int()``; anything else is ISO-8601, naive taken
    as UTC, with a trailing ``Z`` accepted.  Raises ValueError or
    OverflowError for a malformed timestamp.
    """
    value = text.strip()
    if INT_LITERAL_RE.match(value):
        return int(value)
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    stamp = datetime.fromisoformat(value)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def per_user_country_totals(user_country_counts: dict[str, dict[str, int]]) -> dict[str, int]:
    """Each country's check-ins, added up one user and one country at a time."""
    totals: dict[str, int] = {}
    for per_country in user_country_counts.values():
        for code, n in per_country.items():
            totals[code] = totals.get(code, 0) + n
    return totals


def min_key_homes(user_country_counts: dict[str, dict[str, int]]) -> dict[str, str]:
    """Each user's home as ``min`` picks it with a (-count, code) key per country."""
    return {user: min(counts, key=lambda code: (-counts[code], code))
            for user, counts in user_country_counts.items()}


def pair_tally_edges(
    user_country_counts: dict[str, dict[str, int]], homes: dict[str, str], kept: frozenset[str]
) -> dict[tuple[str, str], int]:
    """Travellers per (home, visited) pair, tallied one user and country at a time."""
    edges: dict[tuple[str, str], int] = {}
    for user, counts in user_country_counts.items():
        home = homes[user]
        if home not in kept:
            continue
        for country in counts:
            if country != home and country in kept:
                pair = (home, country)
                edges[pair] = edges.get(pair, 0) + 1
    return edges


# ---------------------------------------------------------------------------
# graph generation

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def codes_for(n: int) -> tuple[str, ...]:
    """The first n two-letter codes AA, AB, AC, ..."""
    pairs = itertools.product(_ALPHABET, repeat=2)
    return tuple("".join(pair) for pair in itertools.islice(pairs, n))


def circulant_graph() -> MobilityGraph:
    """Complete 117-country digraph with strictly ranked out-weights.

    w(i -> j) decreases with the cyclic distance (j - i), so every
    country's Top-k out-neighbours are its next k codes and its Top-k
    in-neighbours its previous k; no per-node weight ties exist.
    """
    codes = tuple(sorted(RegionMap.default().assignment))
    n = len(codes)
    edges = {}
    for i, origin in enumerate(codes):
        for j, dest in enumerate(codes):
            if i != j:
                edges[(origin, dest)] = n - ((j - i) % n)
    return MobilityGraph.build(edges, codes)


def gravity_graph(rng: np.random.Generator, n: int) -> MobilityGraph:
    """Gravity-model flows m_i * m_j / (d_ij + 0.05)^2 with lognormal noise.

    Pareto masses make a few countries hubs of the Top-k subgraphs, and
    flows that round to zero are dropped, so the graph is not complete.
    """
    codes = codes_for(n)
    mass = rng.pareto(1.2, n) + 1.0
    pos = rng.random((n, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    flow = np.floor(0.1 * mass[:, None] * mass[None, :] / (dist + 0.05) ** 2
                    * rng.lognormal(0.0, 0.3, (n, n)))
    np.fill_diagonal(flow, 0.0)
    rows, cols = np.nonzero(flow)
    return MobilityGraph.build({(codes[i], codes[j]): int(flow[i, j])
                                for i, j in zip(rows.tolist(), cols.tolist())}, codes)


def random_digraph(rng: np.random.Generator, n: int, p: float, max_weight: int = 50) -> MobilityGraph:
    """Erdos-Renyi style digraph with random integer weights."""
    codes = codes_for(n)
    mask = rng.random((n, n)) < p
    weights = rng.integers(1, max_weight + 1, size=(n, n))
    edges = {
        (codes[i], codes[j]): int(weights[i, j])
        for i in range(n)
        for j in range(n)
        if i != j and mask[i, j]
    }
    return MobilityGraph.build(edges, codes)


def dict_arrays(
    edges: dict[tuple[str, str], int], nodes: tuple[str, ...] = ()
) -> tuple[tuple[str, ...], list[int], list[int], list[int], np.ndarray]:
    """The sorted node codes of a weighted arc dict, its arcs' source and
    destination positions and weights in sorted pair order, and its dense
    weight matrix, by a scan of every node pair."""
    codes = tuple(sorted(set(nodes) | {code for pair in edges for code in pair}))
    src, dst, weights = [], [], []
    dense = np.zeros((len(codes), len(codes)))
    for i, origin in enumerate(codes):
        for j, dest in enumerate(codes):
            if (origin, dest) in edges:
                src.append(i)
                dst.append(j)
                weights.append(edges[(origin, dest)])
                dense[i, j] = edges[(origin, dest)]
    return codes, src, dst, weights, dense


def node_index(graph: MobilityGraph) -> dict[str, int]:
    """Country code -> position, built here rather than read from the graph's own index."""
    return {code: i for i, code in enumerate(graph.nodes)}


def by_code(codes: tuple[str, ...], values: np.ndarray) -> dict:
    """A per-node array as a code -> value dict, to compare with an oracle's."""
    return dict(zip(codes, values.tolist()))


def index_edges(graph: MobilityGraph) -> set[tuple[int, int]]:
    index = node_index(graph)
    return {(index[o], index[d]) for o, d in graph.edges}


def successor_lists(graph: MobilityGraph) -> list[list[int]]:
    """Per node position, its successors' positions ascending, built from ``edges``."""
    succ: list[list[int]] = [[] for _ in graph.nodes]
    for i, j in sorted(index_edges(graph)):
        succ[i].append(j)
    return succ


# ---------------------------------------------------------------------------
# geodesics (Floyd-Warshall route)


def floyd_warshall_stats(graph: MobilityGraph) -> tuple[float, int, int]:
    """(avg geodesic, diameter, unreachable ordered pairs) by F-W."""
    n = len(graph.nodes)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for i, j in index_edges(graph):
        dist[i][j] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    finite = [dist[i][j] for i in range(n) for j in range(n) if i != j and dist[i][j] < inf]
    unreachable = n * (n - 1) - len(finite)
    avg = sum(finite) / len(finite) if finite else 0.0
    diameter = int(max(finite)) if finite else 0
    return avg, diameter, unreachable


# ---------------------------------------------------------------------------
# serial breadth-first searches, one source at a time: the exact order of
# every floating-point addition the package's shortest-path pass must keep


def bfs_geodesic_stats(graph: MobilityGraph) -> tuple[float, int, int]:
    """(average geodesic, diameter, unreachable ordered pairs), one BFS per source.

    The average and diameter consider reachable ordered pairs s != t
    only; with no such pair both are reported as 0.
    """
    succ = successor_lists(graph)
    n = len(succ)
    total = 0
    reachable = 0
    diameter = 0
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for target in range(n):
            if target != source and dist[target] > 0:
                total += dist[target]
                reachable += 1
                if dist[target] > diameter:
                    diameter = dist[target]
    unreachable = n * (n - 1) - reachable
    avg = total / reachable if reachable else 0.0
    return avg, diameter, unreachable


def serial_brandes_betweenness(graph: MobilityGraph) -> dict[str, float]:
    """Unnormalised directed betweenness by Brandes' algorithm, one source at a time.

    Sources run in node order and successors ascending; dependencies are
    pushed back in stack-pop order and added to the scores per source,
    so every float addition happens in the order the package promises.
    """
    succ = successor_lists(graph)
    n = len(succ)
    score = [0.0] * n
    for source in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[source] = 1.0
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            stack.append(u)
            for v in succ[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != source:
                score[w] += delta[w]
    return {code: score[i] for i, code in enumerate(graph.nodes)}


# ---------------------------------------------------------------------------
# betweenness by explicit enumeration of every shortest path


def _all_shortest_paths(succ: list[list[int]], s: int, t: int) -> list[list[int]]:
    n = len(succ)
    dist = [-1] * n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if dist[t] < 0:
        return []
    paths: list[list[int]] = []
    stack = [[s]]
    while stack:
        path = stack.pop()
        head = path[-1]
        if head == t:
            paths.append(path)
            continue
        for v in succ[head]:
            if dist[v] == dist[head] + 1 and dist[v] <= dist[t]:
                stack.append(path + [v])
    return paths


def exhaustive_betweenness(graph: MobilityGraph) -> dict[str, float]:
    index = node_index(graph)
    n = len(graph.nodes)
    succ: list[list[int]] = [[] for _ in range(n)]
    for o, d in graph.edges:
        succ[index[o]].append(index[d])
    score = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = _all_shortest_paths(succ, s, t)
            if not paths:
                continue
            sigma = len(paths)
            for path in paths:
                for v in path[1:-1]:
                    score[v] += 1.0 / sigma
    return {code: score[i] for i, code in enumerate(graph.nodes)}


# ---------------------------------------------------------------------------
# PageRank as a dense linear system


def pagerank_linear_solve(graph: MobilityGraph, damping: float = 0.85) -> dict[str, float]:
    """Solve (I - d M^T) x = (1-d)/n directly; M is the full transition
    matrix with dangling rows replaced by the uniform distribution."""
    n = len(graph.nodes)
    index = node_index(graph)
    weights = np.zeros((n, n))
    for (o, d), w in graph.edges.items():
        weights[index[o], index[d]] = float(w)
    transition = np.full((n, n), 1.0 / n)
    totals = weights.sum(axis=1)
    rows = totals > 0
    transition[rows] = weights[rows] / totals[rows, None]
    system = np.eye(n) - damping * transition.T
    solution = np.linalg.solve(system, np.full(n, (1.0 - damping) / n))
    return {code: float(solution[i]) for i, code in enumerate(graph.nodes)}


# ---------------------------------------------------------------------------
# strongly connected components, Kosaraju two-pass


def kosaraju_scc(graph: MobilityGraph) -> list[frozenset[str]]:
    index = node_index(graph)
    n = len(graph.nodes)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for o, d in graph.edges:
        succ[index[o]].append(index[d])
        pred[index[d]].append(index[o])
    order: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        seen[start] = True
        while stack:
            node, cursor = stack[-1]
            if cursor < len(succ[node]):
                stack[-1] = (node, cursor + 1)
                child = succ[node][cursor]
                if not seen[child]:
                    seen[child] = True
                    stack.append((child, 0))
            else:
                order.append(node)
                stack.pop()
    assigned = [False] * n
    components: list[frozenset[str]] = []
    for root in reversed(order):
        if assigned[root]:
            continue
        members = []
        queue = deque([root])
        assigned[root] = True
        while queue:
            node = queue.popleft()
            members.append(graph.nodes[node])
            for other in pred[node]:
                if not assigned[other]:
                    assigned[other] = True
                    queue.append(other)
        components.append(frozenset(members))
    return components


# ---------------------------------------------------------------------------
# competition ranks and group ids, one code at a time


def dict_competition_ranks(values: dict[str, float]) -> dict[str, int]:
    """Rank descending by value; ties share the smaller rank.

    After a tie of size t at rank r the next distinct value gets rank
    r + t (standard competition ranking).
    """
    order = sorted(values, key=lambda code: (-values[code], code))
    ranks: dict[str, int] = {}
    current_rank = 0
    previous: float | None = None
    for position, code in enumerate(order, start=1):
        value = values[code]
        if previous is None or value != previous:
            current_rank = position
            previous = value
        ranks[code] = current_rank
    return ranks


def dict_number_groups(groups) -> tuple[dict[str, int], tuple[int, ...]]:
    """Reproducible group ids: each code's id and each id's group size.

    Ids run 0, 1, ... by decreasing group size, ties broken by the
    smallest member code.
    """
    ordered = sorted((sorted(group) for group in groups), key=lambda g: (-len(g), g[0]))
    ids = {code: gid for gid, group in enumerate(ordered) for code in group}
    return ids, tuple(len(group) for group in ordered)


# ---------------------------------------------------------------------------
# average linkage by full recomputation each step


def naive_average_linkage(sym: np.ndarray) -> list[tuple[int, int, float, int]]:
    """Merge sequence [(left, right, height, new_id)] recomputing every
    cluster distance from the raw symmetric matrix at every step."""
    n = sym.shape[0]
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    next_id = n
    merges: list[tuple[int, int, float, int]] = []
    while len(members) > 1:
        best: tuple[float, int, int] | None = None
        ids = sorted(members)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1:]:
                pair_values = [sym[i, j] for i in members[a] for j in members[b]]
                dist = float(sum(pair_values) / len(pair_values))
                candidate = (dist, a, b)
                if best is None or candidate < best:
                    best = candidate
        dist, a, b = best
        members[next_id] = members.pop(a) + members.pop(b)
        merges.append((a, b, dist, next_id))
        next_id += 1
    return merges


def dict_average_linkage(dm: DistanceMatrix) -> tuple[Merge, ...]:
    """Merge sequence from a dict of pair distances keyed (min id, max id).

    Each step takes the minimum over every active pair, ties broken by
    the pair itself, and replaces the two merged clusters' entries with
    the Lance-Williams average.  Same arithmetic as the package, along a
    pairwise route instead of a dense slot matrix.
    """
    n = len(dm.countries)
    sym = (dm.values + dm.values.T) / 2.0
    size = {i: 1 for i in range(n)}
    dist = {(i, j): float(sym[i, j]) for i in range(n) for j in range(i + 1, n)}
    merges: list[Merge] = []
    next_id = n
    while len(size) > 1:
        left, right = min(dist, key=lambda pair: (dist[pair], pair))
        height = dist.pop((left, right))
        left_size = size.pop(left)
        right_size = size.pop(right)
        for other in size:
            to_left = dist.pop((min(left, other), max(left, other)))
            to_right = dist.pop((min(right, other), max(right, other)))
            dist[(other, next_id)] = (
                left_size * to_left + right_size * to_right
            ) / (left_size + right_size)
        size[next_id] = left_size + right_size
        merges.append(Merge(left, right, height, next_id, left_size + right_size))
        next_id += 1
    return tuple(merges)


# ---------------------------------------------------------------------------
# triad classification from canonical representatives

_REPRESENTATIVES: dict[str, tuple[tuple[int, int], ...]] = {
    "003": (),
    "012": ((0, 1),),
    "102": ((0, 1), (1, 0)),
    "021D": ((0, 1), (0, 2)),
    "021U": ((0, 1), (2, 1)),
    "021C": ((0, 1), (1, 2)),
    "111D": ((0, 1), (1, 2), (2, 1)),
    "111U": ((0, 1), (0, 2), (2, 0)),
    "030T": ((0, 1), (1, 2), (0, 2)),
    "030C": ((0, 1), (1, 2), (2, 0)),
    "201": ((0, 1), (1, 0), (0, 2), (2, 0)),
    "120D": ((0, 1), (0, 2), (1, 2), (2, 1)),
    "120U": ((0, 2), (1, 2), (0, 1), (1, 0)),
    "120C": ((0, 1), (1, 2), (0, 2), (2, 0)),
    "210": ((0, 1), (1, 2), (2, 1), (0, 2), (2, 0)),
    "300": ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)),
}


def _arc_set_lookup() -> dict[frozenset[tuple[int, int]], str]:
    lookup: dict[frozenset[tuple[int, int]], str] = {}
    for name, arcs in _REPRESENTATIVES.items():
        for perm in itertools.permutations(range(3)):
            image = frozenset((perm[a], perm[b]) for a, b in arcs)
            existing = lookup.setdefault(image, name)
            assert existing == name, f"ambiguous arc set for {name} vs {existing}"
    assert len(lookup) == 64, f"expected all 64 labeled 3-node digraphs, got {len(lookup)}"
    return lookup


_LOOKUP = _arc_set_lookup()


def classify_triple(edges: set[tuple[int, int]], i: int, j: int, k: int) -> str:
    """Isomorphism class of the sub-digraph induced by nodes i, j, k."""
    local = {i: 0, j: 1, k: 2}
    arcs = frozenset(
        (local[a], local[b])
        for a, b in itertools.permutations((i, j, k), 2)
        if (a, b) in edges
    )
    return _LOOKUP[arcs]


def brute_force_triad_census(graph: MobilityGraph) -> dict[str, int]:
    """Classify every C(n,3) triple one by one."""
    edges = index_edges(graph)
    n = len(graph.nodes)
    counts = {name: 0 for name in _REPRESENTATIVES}
    for i, j, k in itertools.combinations(range(n), 3):
        counts[classify_triple(edges, i, j, k)] += 1
    return counts


# Dyads contributed by a single triad of each class, used to tie the
# triad census back to the dyad census: every unordered node pair lies
# in exactly n - 2 triads.
MUTUAL_PER_CLASS = {
    "102": 1, "111D": 1, "111U": 1, "201": 2,
    "120D": 1, "120U": 1, "120C": 1, "210": 2, "300": 3,
}
ASYMMETRIC_PER_CLASS = {
    "012": 1, "021D": 2, "021U": 2, "021C": 2, "111D": 1, "111U": 1,
    "030T": 3, "030C": 3, "120D": 2, "120U": 2, "120C": 2, "210": 1,
}
NULL_PER_CLASS = {
    "003": 3, "012": 2, "102": 2, "021D": 1, "021U": 1, "021C": 1,
    "111D": 1, "111U": 1, "201": 1,
}


# ---------------------------------------------------------------------------
# digraphs with a fixed degree sequence (for null-model coverage tests)


def degree_family(n: int, out_degrees: list[int], in_degrees: list[int]) -> set[frozenset[tuple[int, int]]]:
    """All simple digraphs on n labeled nodes with the given sequences."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    total = sum(out_degrees)
    family: set[frozenset[tuple[int, int]]] = set()
    for subset in itertools.combinations(arcs, total):
        outs = [0] * n
        ins = [0] * n
        for a, b in subset:
            outs[a] += 1
            ins[b] += 1
        if outs == out_degrees and ins == in_degrees:
            family.add(frozenset(subset))
    return family


def swap_class(arcs: frozenset[tuple[int, int]]) -> set[frozenset[tuple[int, int]]]:
    """Every digraph reachable from ``arcs`` by the moves ``rewire`` makes.

    Breadth-first over directed double-edge swaps: arcs a->b and c->d
    become a->d and c->b unless either is a self-loop or already present.
    """
    seen = {arcs}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        for (a, b), (c, d) in itertools.permutations(current, 2):
            if a == d or c == b or (a, d) in current or (c, b) in current:
                continue
            swapped = current - {(a, b), (c, d)} | {(a, d), (c, b)}
            if swapped not in seen:
                seen.add(swapped)
                queue.append(swapped)
    return seen
