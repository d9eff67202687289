"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed (and size arguments), so
the same seed always yields byte-identical files.  Country codes are
the 117 codes of the packaged region map, so the regional analysis
covers every node.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Epoch seconds of 2018-01-01T00:00:00Z and a two-year window for check-ins.
_EPOCH_START = 1_514_764_800
_EPOCH_SPAN = 2 * 365 * 86_400


def country_codes(src: Path) -> tuple[str, ...]:
    """The sorted codes of the packaged six-continent region map."""
    with open(src / "tourflow" / "data" / "continents.csv", encoding="utf-8", newline="") as f:
        return tuple(sorted(row["country"] for row in csv.DictReader(f)))


def _write_flows(path: Path, edges: dict[tuple[str, str], int]) -> None:
    lines = ["origin,destination,count"]
    lines += [f"{o},{d},{w}" for (o, d), w in sorted(edges.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def circulant_flows(codes: tuple[str, ...], path: Path) -> None:
    """The acceptance-gate graph: complete, w(i -> j) = n - ((j - i) mod n).

    Every country's Top-k Out neighbours are its next k codes, so every
    Top-k subgraph is a regular ring lattice without hubs.
    """
    n = len(codes)
    _write_flows(path, {
        (o, d): n - ((j - i) % n)
        for i, o in enumerate(codes) for j, d in enumerate(codes) if i != j
    })


def gravity_flows(codes: tuple[str, ...], seed: int, path: Path) -> None:
    """A gravity-model flow matrix with heavy-tailed country masses.

    w(i -> j) ~ m_i * m_j / (d_ij + 0.05)^2 with lognormal noise, where
    the masses are Pareto(1.2) and the positions uniform in the unit
    square.  Small flows round to zero and are dropped, so the graph is
    not complete, and a few heavy countries become hubs of the Top-k In
    and Out subgraphs.
    """
    rng = np.random.default_rng(seed)
    n = len(codes)
    mass = rng.pareto(1.2, n) + 1.0
    pos = rng.random((n, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    noise = rng.lognormal(0.0, 0.3, (n, n))
    flow = np.floor(0.1 * mass[:, None] * mass[None, :] / (dist + 0.05) ** 2 * noise)
    np.fill_diagonal(flow, 0.0)
    rows, cols = np.nonzero(flow)
    _write_flows(path, {
        (codes[i], codes[j]): int(flow[i, j]) for i, j in zip(rows.tolist(), cols.tolist())
    })


def _zipf_weights(rng: np.random.Generator, count: int, exponent: float) -> np.ndarray:
    """Zipf-like probabilities over ``count`` items in a seeded random order."""
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    weights = weights[rng.permutation(count)]
    return weights / weights.sum()


def checkin_log(codes: tuple[str, ...], seed: int, rows: int, path: Path) -> None:
    """A check-in CSV ``user_id,country,timestamp,venue_id`` sorted by time.

    - user activity is heavy-tailed (Zipf over users);
    - each user has a home country drawn from a skewed distribution and
      checks in there 75% of the time;
    - other check-ins go to destinations drawn from a second skewed
      distribution;
    - 80% of timestamps are epoch seconds, the rest ISO-8601 with ``Z``;
    - 1% of rows are malformed, split evenly between a wrong field count,
      an invalid country code and an invalid timestamp.
    """
    rng = np.random.default_rng(seed)
    n = len(codes)
    users = max(rows // 25, 10)
    user = rng.choice(users, size=rows, p=_zipf_weights(rng, users, 1.0))
    home = rng.choice(n, size=users, p=_zipf_weights(rng, n, 1.1))
    destination = rng.choice(n, size=rows, p=_zipf_weights(rng, n, 0.9))
    country = np.where(rng.random(rows) < 0.75, home[user], destination)
    stamp = np.sort(_EPOCH_START + rng.integers(0, _EPOCH_SPAN, size=rows))
    iso = np.flatnonzero(rng.random(rows) < 0.2)
    venue = rng.integers(0, 50 * n, size=rows)
    bad = np.flatnonzero(rng.random(rows) < 0.01).tolist()

    code_text = [codes[c] for c in country.tolist()]
    stamp_text = stamp.astype(str).tolist()
    iso_text = np.datetime_as_string(stamp[iso].astype("datetime64[s]")).tolist()
    for i, text in zip(iso.tolist(), iso_text):
        stamp_text[i] = text + "Z"
    lines = [f"u{u},{c},{t},v{v}"
             for u, c, t, v in zip(user.tolist(), code_text, stamp_text, venue.tolist())]
    for i in bad:
        u, c, t, v = lines[i].split(",")
        lines[i] = (f"{u},{c},{t}", f"{u},{c.lower()},{t},{v}",
                    f"{u},{c},2019-02-30T12:00:00Z,{v}")[i % 3]
    path.write_text("user_id,country,timestamp,venue_id\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")
