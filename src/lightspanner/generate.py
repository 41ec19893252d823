"""Seeded random graph families used by tests, the CLI, and sweeps.

Families:
    path                 chain 0-1-...-(n-1)
    star                 vertex 0 joined to all others
    grid                 rows x cols 4-neighbour lattice
    erdos_renyi          G(n, p), skip-sampled so cost is O(n + m)
    geometric_unit_square  points in [0,1]^2, edges within a radius,
                           weighted by Euclidean distance

Output is deterministic for a fixed (family, params, seed). Families that
can come out disconnected are regenerated with the seed incremented, a
bounded number of times, before giving up with GenerationError.
"""
from __future__ import annotations

import math
import random
from collections import defaultdict

from .errors import DisconnectedGraphError, GenerationError
from .graph import WeightedGraph

FAMILIES = ("path", "star", "grid", "erdos_renyi", "geometric_unit_square")

_MAX_RETRIES = 64


def _uniform_weights(rng: random.Random, count: int, weight_range: tuple[float, float]) -> list[float]:
    lo, hi = weight_range
    if not (0 < lo <= hi):
        raise ValueError(f"weight range must be positive and ordered, got {weight_range}")
    return [rng.uniform(lo, hi) for _ in range(count)]


def _grid_shape(n: int, rows: int | None, cols: int | None) -> tuple[int, int]:
    if rows is not None and cols is not None:
        return rows, cols
    if rows is not None or cols is not None:
        missing = "cols" if cols is None else "rows"
        raise ValueError(f"grid needs rows and cols together, {missing} is missing: got rows={rows}, cols={cols}")
    # largest factor of n that is <= sqrt(n); primes degenerate to 1 x n
    r = int(math.isqrt(n))
    while n % r:
        r -= 1
    return r, n // r


def _grid_pairs(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return pairs


def _erdos_renyi_pairs(n, p, rng):
    if not (0 < p <= 1):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    if p == 1.0:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    # geometric skips within each row of the i<j pair triangle: O(n + m)
    pairs = []
    log_q = math.log1p(-p)
    for i in range(n - 1):
        j = i
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if j >= n:
                break
            pairs.append((i, j))
    return pairs


def default_geometric_radius(n: int) -> float:
    """Slightly above the connectivity threshold for n uniform points."""
    return 1.3 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))


def _geometric_edges(n, radius, rng):
    if not (0 < radius <= math.sqrt(2)):
        raise ValueError(f"radius must be in (0, sqrt(2)], got {radius}")
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    cell = radius
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, (x, y) in enumerate(pts):
        buckets[(int(x / cell), int(y / cell))].append(i)
    edges = []
    r2 = radius * radius
    for i in range(n):
        xi, yi = pts[i]
        bx, by = int(xi / cell), int(yi / cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in buckets.get((bx + dx, by + dy), ()):
                    if j <= i:
                        continue
                    d2 = (pts[j][0] - xi) ** 2 + (pts[j][1] - yi) ** 2
                    if d2 <= r2:
                        edges.append((i, j, math.sqrt(d2)))
    edges.sort()
    return edges


def generate_graph(
    family: str,
    n: int,
    *,
    seed: int = 0,
    p: float | None = None,
    radius: float | None = None,
    rows: int | None = None,
    cols: int | None = None,
    weight_range: tuple[float, float] = (1.0, 2.0),
) -> WeightedGraph:
    """Build one graph from a named family, deterministically from the seed.

    Weight semantics: the geometric family weights edges by Euclidean
    distance (its natural positive range, controlled by the radius); all
    other families draw weights uniformly from ``weight_range``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    if family == "grid":
        rows, cols = _grid_shape(n, rows, cols)
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError(f"grid needs rows, cols >= 1 and rows * cols >= 2, got rows={rows}, cols={cols}")
        n = rows * cols

    for attempt in range(_MAX_RETRIES):
        rng = random.Random(seed + attempt)
        if family == "geometric_unit_square":
            rad = radius if radius is not None else default_geometric_radius(n)
            edges = _geometric_edges(n, rad, rng)
        else:
            if family == "path":
                pairs = [(i, i + 1) for i in range(n - 1)]
            elif family == "star":
                pairs = [(0, i) for i in range(1, n)]
            elif family == "grid":
                pairs = _grid_pairs(rows, cols)
            else:
                prob = p if p is not None else min(1.0, 2.0 * math.log(n) / n)
                pairs = _erdos_renyi_pairs(n, prob, rng)
            ws = _uniform_weights(rng, len(pairs), weight_range)
            edges = [(u, v, w) for (u, v), w in zip(pairs, ws)]
        try:
            return WeightedGraph(n, edges)
        except DisconnectedGraphError:
            continue

    raise GenerationError(
        f"family {family!r} with n={n}, seed={seed} stayed disconnected after {_MAX_RETRIES} retries"
    )
