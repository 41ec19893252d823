"""Reference implementations that trade speed for obviousness.

Everything here exists to cross-check the fast library code on small
instances: Bellman-Ford instead of a heap, explicit path enumeration for
bottleneck weights, and brute-force spanning-tree enumeration for the MST.
Weights in generated test graphs are dyadic (multiples of 1/64) so sums of
a few hundred of them are exact in binary floating point and every oracle
comparison can demand equality instead of tolerance.

lemma_suite_reference replays verify_lemma_suite's four checks with a full
scan wherever a distance is read, so the library's truncated scans can be
compared against it witness for witness; pivot_ball_keys_reference names
the pivot balls those checks consult pair by pair, and
uncertified_pivot_ball_keys_reference the ones the suite scans: those its
records' path sums, taken here by plain ``weight_of`` sums
(path_sums_reference), leave uncertified.

stretch_reference is verify_stretch as it was before its scans dropped
parent, origin and bottleneck heap keys: two full ``scan`` calls per
source and every pair's slack and bound computed.

net_hierarchy_reference and slt_forest_reference are the plain versions of
two builder steps that the library does with less work: a greedy net per
level that min-merges one Dijkstra row per added member, then one full scan
per level, and Kruskal over every augmented edge.

dijkstra, multi_source_dijkstra and shortest_path wrap one full ``scan``
into frozen tables and paths with the vertex checks a public entry point
makes; tests read distances, parents and paths from them.

pair_weights_reference is the dict of both orientations of every edge key
that ``weight_of`` and ``has_edge`` are held to.

adjacency_reference is the plain row builder, one tuple appended per edge
end, and subgraph_rows_reference builds a subgraph's rows with it from the
sorted pairs and the host's weights. The references above read subgraph
rows from it, not from the library's ``subgraph_adjacency``.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from lightspanner.graph import INF, WeightedGraph, left_sum, scan, walk_parents
from lightspanner.nets import DeltaNet, NetHierarchy, max_level
from lightspanner.trees import SltForest, _kruskal, _last_parents
from lightspanner.errors import SpannerError
from lightspanner.verify import (
    REL_TOL,
    WITNESS_CAP,
    LemmaResult,
    LemmaSuiteReport,
    StretchReport,
    _within,
    additive_stretch_constant,
)


def adjacency_reference(n: int, edges: Iterable[tuple[int, int, float]]) -> list[list[tuple[int, float]]]:
    """Rows for (u, v, w) edges, each row in the order the edges come."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def pair_weights_reference(edges: Iterable[tuple[int, int, float]]) -> dict[tuple[int, int], float]:
    """The weight of each (u, v, w) edge under both (u, v) and (v, u): what
    ``weight_of`` and ``has_edge`` must answer."""
    table: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        table[u, v] = table[v, u] = w
    return table


def subgraph_rows_reference(g: WeightedGraph, pairs) -> list[list[tuple[int, float]]]:
    """Rows of the subgraph of g on the edges ``pairs``, built from the sorted pairs."""
    return adjacency_reference(g.n, [(u, v, g.weight_of(u, v)) for u, v in sorted(pairs)])


@dataclass(frozen=True)
class Path:
    vertices: tuple[int, ...]
    length: float
    bottleneck: float


@dataclass(frozen=True)
class DistanceTable:
    """Distances, parent forest, per-vertex bottleneck, and nearest origin.

    ``source`` is None for multi-source scans; ``origin[v]`` then names the
    nearest source (ties to the smallest source id). The bottleneck entry is
    the minimum, over tied shortest paths, of the heaviest edge on the path.
    """

    source: int | None
    dist: tuple[float, ...]
    parent: tuple[int, ...]
    bottleneck: tuple[float, ...]
    origin: tuple[int, ...]

    def path_to(self, v: int) -> Path:
        if self.dist[v] == INF:
            raise ValueError(f"vertex {v} not reached")
        return Path(tuple(walk_parents(self.parent, v)), self.dist[v], self.bottleneck[v])


def _check_vertex(g: WeightedGraph, v: int) -> None:
    if not (0 <= v < g.n):
        raise ValueError(f"vertex id {v} outside 0..{g.n - 1}")


def dijkstra(g: WeightedGraph, source: int) -> DistanceTable:
    """Single-source shortest paths with deterministic min-bottleneck ties."""
    _check_vertex(g, source)
    dist, parent, bott, origin, _, _ = scan(g.n, g.adj, (source,))
    return DistanceTable(source, tuple(dist), tuple(parent), tuple(bott), tuple(origin))


def multi_source_dijkstra(g: WeightedGraph, sources: Iterable[int]) -> DistanceTable:
    """Shortest paths from a set of sources; dist[v] = min over the set.

    The parent forest identifies each vertex's nearest source, ties broken by
    the smallest source id and then the smallest predecessor id.
    """
    srcs = sorted(set(sources))
    if not srcs:
        raise ValueError("sources must be nonempty")
    for s in srcs:
        _check_vertex(g, s)
    dist, parent, bott, origin, _, _ = scan(g.n, g.adj, srcs)
    return DistanceTable(None, tuple(dist), tuple(parent), tuple(bott), tuple(origin))


def shortest_path(g: WeightedGraph, u: int, v: int) -> Path:
    """One deterministic shortest u-v path (min bottleneck among ties)."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        return Path((u,), 0.0, 0.0)
    return dijkstra(g, u).path_to(v)


def bellman_ford(g: WeightedGraph, source: int) -> list[float]:
    dist = [INF] * g.n
    dist[source] = 0.0
    for _ in range(g.n - 1):
        changed = False
        for u, v, w in g.edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def enumerate_simple_paths(g: WeightedGraph, s: int, t: int):
    """Yield (length, max_edge) over every simple s-t path. Exponential."""
    stack: list[tuple[int, float, float, set[int]]] = [(s, 0.0, 0.0, {s})]
    while stack:
        u, length, heavy, seen = stack.pop()
        if u == t:
            yield length, heavy
            continue
        for v, w in g.adj[u]:
            if v not in seen:
                stack.append((v, length + w, max(heavy, w), seen | {v}))


def min_bottleneck_of_shortest(g: WeightedGraph, s: int, t: int) -> tuple[float, float]:
    """(shortest distance, min over shortest paths of the heaviest edge).

    Distances are compared as exact Fractions, so 'shortest' is unambiguous
    for dyadic weights regardless of float summation order.
    """
    best_len: Fraction | None = None
    best_heavy: float = INF
    stack: list[tuple[int, Fraction, float, set[int]]] = [(s, Fraction(0), 0.0, {s})]
    while stack:
        u, length, heavy, seen = stack.pop()
        if best_len is not None and length > best_len:
            continue
        if u == t:
            if best_len is None or length < best_len:
                best_len, best_heavy = length, heavy
            elif length == best_len and heavy < best_heavy:
                best_heavy = heavy
            continue
        for v, w in g.adj[u]:
            if v not in seen:
                stack.append((v, length + Fraction(w), max(heavy, w), seen | {v}))
    assert best_len is not None, "no path found"
    return float(best_len), best_heavy


def _edges_span(n: int, picked) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for u, v, _ in picked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            joined += 1
    return joined == n - 1


def min_spanning_weight(g: WeightedGraph) -> float:
    """Exact minimum over all spanning trees, by enumeration. n <= 8 or so."""
    best: Fraction | None = None
    for picked in itertools.combinations(g.edges, g.n - 1):
        if _edges_span(g.n, picked):
            total = sum((Fraction(w) for _, _, w in picked), Fraction(0))
            if best is None or total < best:
                best = total
    assert best is not None
    return float(best)


def all_pairs_via_bf(g: WeightedGraph) -> list[list[float]]:
    return [bellman_ford(g, s) for s in range(g.n)]


# ---------------------------------------------------------------------------
# builder steps, one scan per level and Kruskal over every edge


def net_hierarchy_reference(g: WeightedGraph, eps: float) -> tuple[NetHierarchy, tuple]:
    """build_net_hierarchy as a plain greedy net per level, seeded with the
    level above, then one full multi-source scan per level for the
    nearest-member tables.

    Returns the hierarchy and a table of representatives, rep_table[i][v]
    for every level i >= 0 and vertex v, built from those tables."""
    n = g.n
    i_max = max_level(n)
    t = math.ceil(math.log2(1.0 / eps))
    levels = {i_max: DeltaNet(float(2**i_max), (0,))}
    members = [0]
    near = scan(n, g.adj, (0,))[0]  # each vertex's distance to the members so far
    for i in range(i_max - 1, -1, -1):
        delta = float(2**i)
        for v in range(n):
            if near[v] > delta:
                members.append(v)
                near = [min(a, b) for a, b in zip(near, scan(n, g.adj, (v,))[0])]
        levels[i] = DeltaNet(delta, tuple(sorted(members)))
    levels[-1] = DeltaNet(0.0, tuple(range(n)))
    net_level = [-1] * n
    for i in range(i_max + 1):
        for v in levels[i].members:
            net_level[v] = max(net_level[v], i)
    tables = [scan(n, g.adj, levels[j].members) for j in range(i_max + 1)]
    nearest = [table[3] for table in tables]
    h0: set[tuple[int, int]] = set()
    for j in range(i_max + 1):
        parent = tables[j][1]
        for v in range(n):
            if not (j - t <= net_level[v] <= j - 1):
                continue
            x = v
            while parent[x] != -1:
                p = parent[x]
                h0.add((min(x, p), max(x, p)))
                x = p
    rep_rows = []
    for i in range(i_max + 1):
        a, b = i % t, i // t
        row = []
        for v in range(n):
            x = nearest[a][v]
            for step in range(1, b + 1):
                x = nearest[a + step * t][x]
            row.append(x)
        rep_rows.append(tuple(row))
    hierarchy = NetHierarchy(
        eps=eps,
        i_max=i_max,
        levels=levels,
        nearest=tuple(tuple(row) for row in nearest),
        h0_edges=frozenset(h0),
    )
    return hierarchy, tuple(rep_rows)


def slt_forest_reference(g: WeightedGraph, roots, eps: float) -> SltForest:
    """slt_forest with the augmented MST taken by Kruskal over all m edges
    of g plus the zero-weight root edges."""
    root_list = sorted(set(roots))
    virtual, n_aug = g.n, g.n + 1
    aug_adj = [list(row) for row in g.adj] + [[]]
    for r in root_list:
        aug_adj[r].append((virtual, 0.0))
        aug_adj[virtual].append((r, 0.0))
    tree_edges = _kruskal(n_aug, list(g.edges) + [(r, virtual, 0.0) for r in root_list])
    dist, parent_spt, _, _, _, _ = scan(n_aug, aug_adj, (virtual,))

    def aug_weight(a, b):
        return 0.0 if virtual in (a, b) else g.weight_of(a, b)

    # the tour reads each vertex's tree edges as (u, v, w) tuples, by ascending neighbour
    tree_adj = [[] for _ in range(n_aug)]
    for e in tree_edges:
        tree_adj[e[0]].append(e)
        tree_adj[e[1]].append(e)
    for x, row in enumerate(tree_adj):
        row.sort(key=lambda e: e[0] + e[1] - x)
    parents = _last_parents(n_aug, tree_adj, virtual, 1.0 + eps, dist, parent_spt, aug_weight)
    edges = sorted(
        (min(v, p), max(v, p), g.weight_of(v, p)) for v, p in enumerate(parents[: g.n]) if p != virtual
    )
    return SltForest(g.n, frozenset(root_list), tuple(edges), left_sum(w for _, _, w in edges))


# ---------------------------------------------------------------------------
# lemma suite, full scans only


class _FullRows:
    """Full single-source distance rows of one graph, each computed once."""

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = adj
        self._rows: dict[int, list[float]] = {}

    def row(self, u: int) -> list[float]:
        if u not in self._rows:
            self._rows[u] = scan(self.n, self.adj, (u,))[0]
        return self._rows[u]


def _representative_reference(gn, sp, internals) -> LemmaResult:
    h = internals.hierarchy
    n = gn.n
    h0_adj = subgraph_rows_reference(gn, h.h0_edges & sp.edges)
    factor = 1.0 + 2.0 * h.eps
    checked = 0
    witnesses = []
    for v in range(n):
        dist = scan(n, h0_adj, (v,))[0]
        for i in range(h.i_max + 1):
            x = h.rep(v, i)
            checked += 1
            if not _within(dist[x], factor * 2.0**i):
                witnesses.append((v, i, x, dist[x], factor * 2.0**i))
    return LemmaResult("representative", checked, tuple(witnesses[:WITNESS_CAP]))


def _distance_in_bunch_reference(gn, sp, internals, g_rows) -> LemmaResult:
    sampling = internals.sampling
    eps = internals.hierarchy.eps
    n = gn.n
    h_adj = subgraph_rows_reference(gn, sp.edges)
    delta = 0.5 * (1.0 - eps)
    checked = 0
    witnesses = []
    for u in range(n):
        i = sampling.level_of[u]
        dist_g = g_rows.row(u)
        if i == sampling.k:
            members = [v for v in sampling.members(sampling.k) if v != u]
        else:
            radius = delta * sampling.pivot_dist[i + 1][u]
            members = [v for v in sorted(sampling.levels[i]) if v != u and dist_g[v] < radius]
        if not members:
            continue
        dist_h = scan(n, h_adj, (u,))[0]
        # a member the spanner does not reach within (1 + eps) times the
        # farthest member's distance is reported at distance INF
        reach = (1.0 + eps) * max(dist_g[v] for v in members) * (1.0 + REL_TOL)
        for v in members:
            checked += 1
            dh = dist_h[v] if dist_h[v] <= reach else INF
            if not _within(dh, (1.0 + eps) * dist_g[v]):
                witnesses.append((u, v, dist_g[v], dh))
    return LemmaResult("distance_in_bunch", checked, tuple(witnesses[:WITNESS_CAP]))


def _half_bunch_reference(internals, g_rows, asked) -> LemmaResult:
    sampling = internals.sampling
    k = sampling.k
    groups: dict[tuple[int, int, int], list] = {}
    for r in internals.records:
        groups.setdefault((r.center_level, r.scale, r.target), []).append(r)
    checked = 0
    witnesses = []
    for (level, scale, target), recs in sorted(groups.items()):
        centers = sorted({(r.center, r.dist_target) for r in recs})
        if level == k:
            checked += len(centers)
            continue
        star = max(centers, key=lambda cd: (cd[1], -cd[0]))[0]
        asked.add((level, star))
        pd = sampling.pivot_dist[level + 1][star]
        row = g_rows.row(star)
        for u, _ in centers:
            checked += 1
            if not (row[u] < pd * (1.0 + REL_TOL)):
                witnesses.append((level, scale, target, star, u, row[u], pd))
    return LemmaResult("half_bunch_containment", checked, tuple(witnesses[:WITNESS_CAP]))


def _paths_intersect_reference(internals, g_rows, asked) -> LemmaResult:
    sampling = internals.sampling
    checked = 0
    witnesses = []
    for level in range(sampling.k):
        recs = [r for r in internals.records if r.center_level == level]
        on_vertex: dict[int, list[int]] = {}
        for idx, r in enumerate(recs):
            for w in r.path:
                on_vertex.setdefault(w, []).append(idx)
        pairs = set()
        for idxs in on_vertex.values():
            for a, b in itertools.combinations(idxs, 2):
                if (recs[a].center, recs[a].target) != (recs[b].center, recs[b].target):
                    pairs.add((min(a, b), max(a, b)))

        def contains_all(center_rec, other_rec) -> bool:
            asked.add((level, center_rec.center))
            pd = sampling.pivot_dist[level + 1][center_rec.center]
            row = g_rows.row(center_rec.center)
            points = (center_rec.target, other_rec.center, other_rec.target)
            return all(row[p] < pd * (1.0 + REL_TOL) for p in points)

        for a, b in sorted(pairs):
            ra, rb = recs[a], recs[b]
            checked += 1
            first, second = (ra, rb) if ra.dist_target >= rb.dist_target else (rb, ra)
            if not (contains_all(first, second) or contains_all(second, first)):
                witnesses.append((level, ra.center, ra.target, rb.center, rb.target))
    return LemmaResult("paths_intersect", checked, tuple(witnesses[:WITNESS_CAP]))


def lemma_suite_reference(sp, internals=None) -> LemmaSuiteReport:
    """verify_lemma_suite's four checks, every distance from a full scan."""
    internals = internals if internals is not None else sp.internals
    gn = internals.normalized
    g_rows = _FullRows(gn.n, gn.adj)
    asked: set[tuple[int, int]] = set()
    return LemmaSuiteReport(
        results=(
            _representative_reference(gn, sp, internals),
            _distance_in_bunch_reference(gn, sp, internals, g_rows),
            _half_bunch_reference(internals, g_rows, asked),
            _paths_intersect_reference(internals, g_rows, asked),
        )
    )


def pivot_ball_keys_reference(internals) -> set[tuple[int, int]]:
    """The (level, center) pivot balls the suite's lazy order asks for.

    These are the half-bunch stars below the top level, plus the first
    center of every intersecting pair (the one whose target is farther, the
    lower record on a tie), plus the second center wherever the first
    center's ball misses a point. The references above record each ball
    they consult, and `or` consults the second only when the first fails.
    """
    gn = internals.normalized
    g_rows = _FullRows(gn.n, gn.adj)
    asked: set[tuple[int, int]] = set()
    _half_bunch_reference(internals, g_rows, asked)
    _paths_intersect_reference(internals, g_rows, asked)
    return asked


def path_sums_reference(gn: WeightedGraph, record) -> tuple[list[float], list[float]] | None:
    """(prefix, suffix) sums of the record's path, by one ``weight_of`` per
    step: prefix[j] sums the weights from the center to path[j], left to
    right, and suffix[j] those from the target back to path[j], from the
    target's end. None when the path does not run from the record's center
    to its target, or takes a step that is no edge of gn."""
    path = record.path
    if not path or path[0] != record.center or path[-1] != record.target:
        return None
    steps = list(zip(path, path[1:]))
    if not all(gn.has_edge(a, b) for a, b in steps):
        return None
    prefix = [0.0]
    for a, b in steps:
        prefix.append(prefix[-1] + gn.weight_of(a, b))
    suffix = [0.0]
    for a, b in reversed(steps):
        suffix.append(suffix[-1] + gn.weight_of(a, b))
    suffix.reverse()
    return prefix, suffix


def uncertified_pivot_ball_keys_reference(internals) -> set[tuple[int, int]]:
    """The (level, center) pivot balls the suite scans: those the records'
    path sums leave uncertified.

    Half-bunch: the star's ball, when some center u of its group has
    w(P_star) + w(P_u) >= the star's pivot distance (each the lightest path
    of its center in the group). Paths-intersect, at each shared vertex x,
    walking the records in the rule's order from the last back: record r's
    ball, when a record after it has another (center, target) and r's path,
    or its prefix to x plus the larger part of a later path, is not strictly
    below r's pivot distance. If the ball then misses a point, every record
    through x is marked and the walk at x stops; the pair rule then runs
    from the marked records as in ``pivot_ball_keys_reference``. Ball
    contents come from full rows.
    """
    gn = internals.normalized
    sampling = internals.sampling
    records = internals.records
    g_rows = _FullRows(gn.n, gn.adj)
    sums = [path_sums_reference(gn, r) for r in records]
    weight = [INF if s is None else s[0][-1] for s in sums]
    asked: set[tuple[int, int]] = set()

    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, r in enumerate(records):
        groups.setdefault((r.center_level, r.scale, r.target), []).append(i)
    for (level, _, _), idxs in groups.items():
        if level == sampling.k:
            continue
        star = max((records[i] for i in idxs), key=lambda r: (r.dist_target, -r.center)).center
        pd = sampling.pivot_dist[level + 1][star]
        lightest = {records[i].center: INF for i in idxs}
        for i in idxs:
            lightest[records[i].center] = min(lightest[records[i].center], weight[i])
        if any(not (lightest[star] + w < pd) for w in lightest.values()):
            asked.add((level, star))

    def sums_at(i, x):
        """(prefix, suffix) of record i's path at its first visit of x, INF for no path."""
        if sums[i] is None:
            return INF, INF
        j = records[i].path.index(x)
        return sums[i][0][j], sums[i][1][j]

    for level in range(sampling.k):
        ids = [i for i, r in enumerate(records) if r.center_level == level]
        pivot = sampling.pivot_dist[level + 1]

        def key(i):
            return records[i].center, records[i].target

        def holds(c, points) -> bool:
            asked.add((level, c))
            row = g_rows.row(c)
            return all(row[p] < pivot[c] * (1.0 + REL_TOL) for p in points)

        on_vertex: dict[int, list[int]] = {}
        for i in ids:
            for x in records[i].path:
                on_vertex.setdefault(x, []).append(i)
        marked: set[int] = set()
        for x, through in on_vertex.items():
            order = sorted(through, key=lambda i: (-records[i].dist_target, i))
            for pos in range(len(order) - 1, -1, -1):
                r, after = order[pos], order[pos + 1 :]
                if all(key(s) == key(r) for s in after):
                    continue
                p_r = sums_at(r, x)[0]
                if weight[r] < pivot[records[r].center] and all(
                    p_r + max(sums_at(s, x)) < pivot[records[r].center] for s in after
                ):
                    continue
                if not holds(records[r].center, [records[r].target, *(p for s in after for p in key(s))]):
                    marked.update(through)
                    break
        for a in sorted(marked):
            partners = sorted({b for x in records[a].path for b in on_vertex[x] if b > a})
            for b in partners:
                if key(a) == key(b):
                    continue
                first, second = (b, a) if records[b].dist_target > records[a].dist_target else (a, b)
                if not holds(records[first].center, (records[first].target, *key(second))):
                    holds(records[second].center, (records[second].target, *key(first)))
    return asked


def stretch_reference(g, sp, *, mode="all_pairs", sample_size=64, seed=0) -> StretchReport:
    """verify_stretch with two full scans per source and every pair's bound."""
    n = g.n
    eps = sp.params.eps
    if sp.params.kind == "hierarchical":
        alpha = 1.0 + 2.0 * eps
        bound_const = additive_stretch_constant(eps, sp.params.k)
        w_fixed = None
    else:
        alpha = 1.0 + eps
        bound_const = 2.0 * (1.0 + eps)
        w_fixed = max(w for _, _, w in g.edges)
    if mode == "all_pairs":
        sources = range(n)
    else:
        sources = sorted(random.Random(seed).sample(range(n), min(sample_size, n)))
    h_adj = subgraph_rows_reference(g, sp.edges)
    pairs = 0
    worst_mult = 1.0
    worst_slack = 0.0
    violations = []
    violation_count = 0
    for x in sources:
        dist_g, _, btl_g, _, _, _ = scan(n, g.adj, (x,))
        dist_h, _, _, _, _, _ = scan(n, h_adj, (x,))
        targets = range(x + 1, n) if mode == "all_pairs" else range(n)
        for y in targets:
            if y == x:
                continue
            dg = dist_g[y]
            dh = dist_h[y]
            if dh < dg:
                raise SpannerError(f"spanner is not a subgraph at ({x}, {y})")
            w = w_fixed if w_fixed is not None else btl_g[y]
            pairs += 1
            worst_mult = max(worst_mult, dh / dg)
            worst_slack = max(worst_slack, (dh - alpha * dg) / w)
            if not _within(dh, alpha * dg + bound_const * w):
                violation_count += 1
                if len(violations) < WITNESS_CAP:
                    violations.append((x, y, dg, dh, w))
    return StretchReport(
        pairs_checked=pairs,
        worst_mult_stretch=worst_mult,
        worst_additive_slack=worst_slack,
        bound_used=bound_const,
        alpha=alpha,
        violations=tuple(violations),
        violation_count=violation_count,
        mode=mode,
        kind=sp.params.kind,
    )
