"""Certification of spanner guarantees: stretch, lightness, nets, trees, lemmas.

Everything here is read-only over a graph and a finished spanner. The checks
come in three tiers:

  * verify_stretch / verify_lightness certify the headline guarantees on the
    host graph (multiplicative stretch plus an additive term proportional to
    the min-bottleneck shortest-path weight between the pair),
  * verify_net / verify_slt certify the building blocks in isolation,
  * verify_lemma_suite replays the construction-level facts (representative
    distances, bunch distances, containment of rep-sharing centers, ball
    containment of intersecting connection paths) against the internals the
    spanner retains; distances the spanner must provide are measured inside it.

Each lemma names one ball around one vertex, and its check scans at most
that ball: the representative check runs one truncated H0 scan from each
distinct representative of a vertex other than itself, of radius
(1+2eps)*2^i for the highest level i it represents, stopped once the
vertices it represents are settled (a vertex that represents itself is at
distance 0 and needs no scan), and the bunch check one truncated scan of
the center's shrunken radius (unbounded at the top level). A truncated
scan settles every vertex within its radius with the full scan's
distances, whatever the radius, so every verdict is the one a full scan
gives; full scans run only to supply a violator's witness distance.

The builder's records carry a graph path per connection, and one pass sums
the weights along each (``_path_sums``, from the graph's rows, never from
the builder's distances). A path's sum bounds the distance it spans, so
the half-bunch and paths-intersect checks certify from the sums, and the
bunch check certifies the spanner side from paths that lie in H. Only what
the sums leave uncertified falls back to a scan: a pivot ball, or the
bunch check's H ball, whose rows it builds only for the first center that
needs one. On a genuine build no pivot ball is scanned. Each check runs
its truncated scans on its own ``graph.DistanceBalls``, whose O(n) dist
table is reused from ball to ball, and keeps a fallback's pivot ball only
while the fallback needs it, so memory is O(n) per check plus the path
sums (16 bytes per path vertex and per record), not O(n^2). The
paths-intersect check counts each record's partners, the records that
share a vertex with it, as C-level set unions, and certifies all pairs
through a shared vertex with O(1) work per record; where the sums do not
certify a record, the pair rule decides each of its pairs there. It builds
no global set of pairs, keeps at most WITNESS_CAP failing ones, and tests
no pair that could no longer be a witness.

Distance comparisons allow 1e-9 relative slack on the bound side; the
subgraph lower bound d_H >= d_G is exact (a spanner path is a graph path, so
its float sum appears verbatim among the graph's candidate sums). Reports are
frozen dataclasses that serialize from their fields (see ``_Report``) and are
deterministic given (graph, spanner, mode, seed).

Every scan here reads only distances (and, for stretch, the graph's
bottlenecks), except verify_net's multi-source ``scan``, which reads
origins: the stretch check, verify_slt and the lemma suite's full rows run
graph's distance-only full kernels, the stretch check on the ring kernels
where its input's weights let the ring pay, and every truncated ball, the
packing check's included, runs on ``DistanceBalls``.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate, islice, repeat
from typing import ClassVar, NamedTuple, Sequence

from .errors import SpannerError
from .graph import INF, DistanceBalls, WeightedGraph, adjacency_from_edges, distances, distances_and_bottlenecks, scan
from .graph import ring_distances, ring_distances_and_bottlenecks, ring_pays, subgraph_adjacency
from .nets import DeltaNet
from .spanner import BuildInternals, Spanner
from .trees import SltForest, SpanningTree, mst

REL_TOL = 1e-9
WITNESS_CAP = 100


def _within(value: float, bound: float) -> bool:
    """value <= bound, allowing REL_TOL relative slack on the bound."""
    return value <= bound * (1.0 + REL_TOL)


def delta_parameter(eps: float, k: int) -> float:
    """Net-scale parameter feeding the additive stretch constant."""
    return 7.0 + 14.0 * k / eps


def additive_stretch_constant(eps: float, k: int) -> float:
    """Coefficient of the per-pair bottleneck weight in the stretch bound.

    Raises ValueError when 24 * (3D)^k is not a finite float, as for large
    k: no spanner can be certified against an infinite bound.
    """
    try:
        const = 24.0 * (3.0 * delta_parameter(eps, k)) ** k
    except OverflowError:
        const = INF
    if not math.isfinite(const):
        raise ValueError(f"additive stretch constant 24*(3D)^k overflows a float for eps={eps}, k={k}")
    return const


def _check_host(g: WeightedGraph, sp: Spanner) -> None:
    if sp.host != g:
        raise SpannerError("spanner was built on a different graph than the one supplied")


class _Report:
    """Base of the report dataclasses: a report's JSON is its fields, each
    under its own name (tuples as lists, nested reports as their dicts), its
    class's ``schema`` where it has one, and ``passed``."""

    schema: ClassVar[str | None] = None

    def to_json_dict(self) -> dict:
        out = {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}
        if self.schema is not None:
            out["schema"] = self.schema
        out["passed"] = self.passed
        return out


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, _Report):
        return value.to_json_dict()
    return value


# ---------------------------------------------------------------------------
# stretch


@dataclass(frozen=True)
class StretchReport(_Report):
    """All-pairs (or sampled-source) stretch certification.

    worst_additive_slack is max over pairs of (d_H - alpha*d_G) / W, clamped
    to 0 when the multiplicative part alone covers the pair; the spanner
    passes iff that slack never exceeds bound_used.
    """

    schema: ClassVar[str] = "stretch_report/v1"

    pairs_checked: int
    worst_mult_stretch: float
    worst_additive_slack: float
    bound_used: float
    alpha: float
    violations: tuple[tuple[int, int, float, float, float], ...]  # (x, y, d_G, d_H, W)
    violation_count: int
    mode: str
    kind: str

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def verify_stretch(
    g: WeightedGraph,
    sp: Spanner,
    *,
    mode: str = "all_pairs",
    sample_size: int = 64,
    seed: int = 0,
) -> StretchReport:
    """Certify d_H <= alpha*d_G + bound*W for every checked pair.

    Hierarchical spanners use alpha = 1+2*eps and the explicit constant
    from additive_stretch_constant with per-pair bottleneck W(x, y); the
    heavy-edge variant uses alpha = 1+eps and W = max edge weight. Sampled
    mode runs full single-source checks from a seeded vertex sample of
    min(sample_size, n) sources; a sample_size below 1 is a ValueError,
    since a certification that checks no pair would pass vacuously.

    Each source runs two full scans: ``distances_and_bottlenecks`` on G
    and ``distances`` on H, neither with a parent, origin or bottleneck
    heap key. A pair with d_H <= alpha*d_G has slack <= 0 and is within
    the bound, so W, the slack and the bound are read only for a pair
    above that line.

    The queue is picked once per call, from the input. The first source
    runs on those heap kernels. The others run on the ring kernels
    (``ring_distances_and_bottlenecks`` and ``ring_distances``, slots of
    width delta, half G's lightest edge) when ``ring_pays``: the first H
    scan reached all n vertices and 2 * ecc_H(x0) / delta plus the ring's
    int(max_w / delta) + 2 slots is at most n. Every distance either later
    scan meets is at most 2 * ecc_H(x0), since d_G <= d_H, by the triangle
    inequality through x0, and a scan stops at the slot of its last
    settled vertex; so the rule is the cost model's break-even, at least
    one vertex per slot walked or made (a slot costs about one heap push
    and pop), and it keeps every weight far above a distance's rounding.
    One heavy edge makes the ring too long, so such an input keeps the
    heap, even when no shortest path uses the edge. Every vertex that
    lowers or ties v's distance then lies in an earlier slot than v, so
    the ring kernels return the heap kernels' tables bit for bit and the
    report does not depend on the queue. G(n,p), grid and star inputs take the ring
    (G(n,p) n=4096: 280-350 vertices per slot); geometric inputs (0.1-0.4
    at n=512 and 8192) and long paths keep the heap.
    """
    _check_host(g, sp)
    n = g.n
    eps = sp.params.eps
    kind = sp.params.kind
    if kind == "hierarchical":
        alpha = 1.0 + 2.0 * eps
        bound_const = additive_stretch_constant(eps, sp.params.k)
        w_fixed = None
    else:
        alpha = 1.0 + eps
        bound_const = 2.0 * (1.0 + eps)
        w_fixed = max(w for _, _, w in g.iter_edges())

    if mode == "all_pairs":
        sources: Sequence[int] = range(n)
    elif mode == "sampled":
        if sample_size < 1:
            raise ValueError(f"sampled mode needs sample_size >= 1, got {sample_size}")
        sources = sorted(random.Random(seed).sample(range(n), min(sample_size, n)))
    else:
        raise ValueError(f"mode must be 'all_pairs' or 'sampled', got {mode!r}")

    h_adj = sp.adjacency()
    pairs = 0
    worst_mult = 1.0
    worst_slack = 0.0
    violations: list[tuple[int, int, float, float, float]] = []
    violation_count = 0
    tol = 1.0 + REL_TOL

    ring = None  # (delta, heaviest weight) once the first source shows the ring pays
    for x in sources:
        if ring:
            dist_g, btl_g = ring_distances_and_bottlenecks(n, g.adj, x, *ring)
            dist_h = ring_distances(n, h_adj, x, *ring)
        else:
            dist_g, btl_g = distances_and_bottlenecks(n, g.adj, x)
            dist_h = distances(n, h_adj, (x,))
            if x == sources[0] and len(sources) > 1:
                weights = [w for _, _, w in g.iter_edges()]
                delta = 0.5 * min(weights)
                heaviest = max(weights)
                if ring_pays(n, delta, heaviest, dist_h):
                    ring = (delta, heaviest)
        if mode == "all_pairs":
            lo = x + 1
            pairs += n - lo
        else:
            # the pair (x, x) is visited but not counted: both its
            # distances are 0, so the first test below skips it
            lo = 0
            pairs += n - 1
        for y, dg, dh in zip(range(lo, n), dist_g[lo:], dist_h[lo:]):
            if dh <= dg:
                if dh < dg:
                    raise SpannerError(
                        f"spanner claims a shorter path than the graph for ({x}, {y}): "
                        f"{dh} < {dg}; the spanner is not a subgraph"
                    )
                continue  # stretch 1 and slack <= 0: no worst value moves
            mult = dh / dg
            if mult > worst_mult:
                worst_mult = mult
            if dh <= alpha * dg:
                continue  # slack <= 0 and dh is within the bound
            w = w_fixed if w_fixed is not None else btl_g[y]
            slack = (dh - alpha * dg) / w
            if slack > worst_slack:
                worst_slack = slack
            if not dh <= (alpha * dg + bound_const * w) * tol:
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
        kind=kind,
    )


# ---------------------------------------------------------------------------
# lightness


@dataclass(frozen=True)
class LightnessReport(_Report):
    schema: ClassVar[str] = "lightness_report/v1"

    spanner_weight: float
    mst_weight: float
    lightness: float
    per_phase: dict[str, tuple[int, float]]  # tag -> (edge count, weight)
    size: int

    @property
    def passed(self) -> bool:
        return self.lightness >= 1.0 - REL_TOL

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["per_phase"] = {
            tag: {"count": c, "weight": w} for tag, (c, w) in sorted(self.per_phase.items())
        }
        return out


def verify_lightness(g: WeightedGraph, sp: Spanner) -> LightnessReport:
    """Exact per-phase weight accounting; lightness = w(H) / w(MST)."""
    _check_host(g, sp)
    if not g.m:
        raise ValueError("graph has no edges")
    mst_weight = mst(g).total_weight
    buckets: dict[str, list[float]] = {}
    # fsum is exact, so neither the sums nor the report depend on edge order
    for _, _, w, tag in g.edges_in(sp.phase_tag):
        buckets.setdefault(tag, []).append(w)
    per_phase = {tag: (len(ws), math.fsum(ws)) for tag, ws in buckets.items()}
    total = math.fsum(w for ws in buckets.values() for w in ws)
    return LightnessReport(
        spanner_weight=total,
        mst_weight=mst_weight,
        lightness=total / mst_weight,
        per_phase=per_phase,
        size=len(sp.edges),
    )


# ---------------------------------------------------------------------------
# nets


@dataclass(frozen=True)
class NetReport(_Report):
    schema: ClassVar[str] = "net_report/v1"

    delta: float
    size: int
    covering_violations: tuple[tuple[int, float], ...]  # (vertex, dist to net)
    packing_violations: tuple[tuple[int, int, float], ...]  # (member, member, dist)
    mst_bound_ok: bool

    @property
    def passed(self) -> bool:
        return not self.covering_violations and not self.packing_violations and self.mst_bound_ok


def verify_net(g: WeightedGraph, net: DeltaNet) -> NetReport:
    """Covering (every vertex within delta of the net) and packing (members
    pairwise further than delta apart), plus the net-size side condition
    size * delta <= 2 * w(MST) for nets with at least two members.

    Packing uses one multi-source scan: a closest pair of members realizes
    its distance across some edge whose endpoints are claimed by different
    members, so scanning boundary edges finds every candidate pair; each
    candidate is then confirmed with an exact truncated scan. Covering gets
    REL_TOL slack (nets built by decree, like a hierarchy's top singleton,
    sit within rounding of the covering radius); packing is exact, matching
    the strict inequality the greedy construction maintains.
    """
    n = g.n
    delta = net.delta
    members = net.members
    if not members:
        raise ValueError("net has no members")
    stray = next((v for v in members if not (0 <= v < n)), None)
    if stray is not None:
        raise ValueError(f"net member {stray} outside 0..{n - 1}")

    dist, _, _, origin, _, _ = scan(n, g.adj, members)
    uncovered = ((v, dist[v]) for v in range(n) if not _within(dist[v], delta))
    covering = tuple(islice(uncovered, WITNESS_CAP))

    packing: list[tuple[int, int, float]] = []
    if delta > 0 and len(members) >= 2:
        suspects: set[int] = set()
        for u, v, w in g.iter_edges():
            if origin[u] != origin[v] and dist[u] + w + dist[v] <= delta * (1.0 + REL_TOL):
                suspects.add(origin[u])
                suspects.add(origin[v])
        member_set = set(members)
        seen: set[tuple[int, int]] = set()
        balls = DistanceBalls(n)
        d_a = balls.dist
        for a in sorted(suspects):
            balls.ball(g.adj, a, delta * (1.0 + REL_TOL))
            for b in members:
                # d_a[b] is INF for a b outside the ball
                if b == a or d_a[b] > delta:
                    continue
                key = (a, b) if a < b else (b, a)
                if key not in seen:
                    seen.add(key)
                    packing.append((key[0], key[1], d_a[b]))
        assert suspects <= member_set
        packing.sort()

    mst_ok = len(members) < 2 or _within(len(members) * delta, 2.0 * mst(g).total_weight)
    return NetReport(
        delta=delta,
        size=len(members),
        covering_violations=covering,
        packing_violations=tuple(packing[:WITNESS_CAP]),
        mst_bound_ok=mst_ok,
    )


# ---------------------------------------------------------------------------
# shallow-light trees


@dataclass(frozen=True)
class SltReport(_Report):
    schema: ClassVar[str] = "slt_report/v1"

    root: int
    alpha: float
    gamma: float
    worst_root_stretch: float
    tree_weight: float
    mst_weight: float
    weight_ratio: float
    violations: tuple[tuple[int, float, float], ...]  # (vertex, d_T, d_G)

    @property
    def passed(self) -> bool:
        return not self.violations and _within(self.weight_ratio, self.gamma)


def verify_slt(g: WeightedGraph, tree: SltForest | SpanningTree, root: int, eps: float) -> SltReport:
    """Both shallow-light conditions: root distances within 1+eps of the
    graph's, total weight within 1+2/eps of the MST's. ``tree`` holds edges
    of g, such as those of ``slt_forest(g, (root,), eps)``."""
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} outside 0..{g.n - 1}")
    if not (eps > 0):
        raise ValueError(f"verify_slt needs eps > 0, got {eps}")
    if tree.n != g.n:
        raise SpannerError(f"tree has {tree.n} vertices but graph has {g.n}")
    for u, v, w in tree.edges:
        if not g.has_edge(u, v) or g.weight_of(u, v) != w:
            raise SpannerError(f"tree edge ({u}, {v}, {w}) is not a graph edge")
    alpha = 1.0 + eps
    gamma = 1.0 + 2.0 / eps
    dist_g = distances(g.n, g.adj, (root,))
    tree_adj = adjacency_from_edges(g.n, tree.edges)
    dist_t = distances(g.n, tree_adj, (root,))
    worst = 1.0
    violations = []
    for v in range(g.n):
        if v == root:
            continue
        ratio = dist_t[v] / dist_g[v]
        if ratio > worst:
            worst = ratio
        if not _within(dist_t[v], alpha * dist_g[v]) and len(violations) < WITNESS_CAP:
            violations.append((v, dist_t[v], dist_g[v]))
    mst_weight = mst(g).total_weight
    return SltReport(
        root=root,
        alpha=alpha,
        gamma=gamma,
        worst_root_stretch=worst,
        tree_weight=tree.total_weight,
        mst_weight=mst_weight,
        weight_ratio=tree.total_weight / mst_weight,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# construction-level lemma suite


@dataclass(frozen=True)
class LemmaResult(_Report):
    name: str
    checked: int
    witnesses: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class LemmaSuiteReport(_Report):
    schema: ClassVar[str] = "lemma_suite/v1"

    results: tuple[LemmaResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> LemmaResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


class _PathSums(NamedTuple):
    """Weight sums along every record's path, read off the normalized
    graph's rows; see _path_sums.

    Record i's path vertices sit at positions start[i] .. start[i + 1] - 1.
    At each, pre is the path's weight from its center to that vertex, summed
    left to right, and suf its weight from the target back to it, summed
    from the target's end. total[i] is the whole path's left-to-right sum.
    """

    start: array
    pre: array
    suf: array
    total: array


def _path_sums(gn: WeightedGraph, records: Sequence) -> _PathSums:
    """One pass over every record's path, bisecting row ``a`` of the
    normalized graph for each step (a, b).

    A record whose path does not run from its center to its target, or
    takes a step that is no edge of the graph, gets INF at every position
    and as its total: it bounds no distance, so it certifies nothing. The
    builder's ``dist_target`` is never read.

    The sums are upper bounds on float distances. Dijkstra's float distance
    from c is at most the left-to-right float sum of any path from c, since
    fl(a + w) does not fall as a grows; so d(center, x) <= pre at x and
    d(center, target) <= total, exactly. A bound that joins two sums, such
    as pre of one path plus suf of another at a shared vertex, is the weight
    of a walk summed in another order: a float sum of m nonnegative weights
    lies within about m * 2**-53 relative of the exact one, so the joined
    bound is within about n * 2**-51 relative of the walk's float sum for
    paths of at most n vertices, below REL_TOL for any n under a million. The checks
    that join sums certify only a bound strictly below a pivot distance pd,
    while the pivot ball holds every vertex closer than pd * (1 + REL_TOL),
    so rounding cannot certify a vertex the ball would leave out.

    Memory is 16 bytes per path vertex and 16 per record, freed with the
    suite.
    """
    adj = gn.adj
    start, pre, suf, total = array("q", [0]), array("d"), array("d"), array("d")
    for r in records:
        path = r.path
        weights: list[float] | None = []
        if not path or path[0] != r.center or path[-1] != r.target:
            weights = None
        else:
            for a, b in zip(path, path[1:]):
                row = adj[a]
                j = bisect_left(row, (b,))
                if j == len(row) or row[j][0] != b:
                    weights = None
                    break
                weights.append(row[j][1])
        if weights is None:
            pre.extend(repeat(INF, len(path)))
            suf.extend(repeat(INF, len(path)))
            total.append(INF)
        else:
            pre.extend(accumulate(weights, initial=0.0))
            total.append(pre[-1])
            tail = list(accumulate(reversed(weights), initial=0.0))
            tail.reverse()
            suf.extend(tail)
        start.append(len(pre))
    return _PathSums(start, pre, suf, total)


def _pivot_ball(balls: DistanceBalls, gn: WeightedGraph, sampling, level: int, center: int) -> frozenset[int]:
    """The vertices x with d(center, x) < pivot_dist[level + 1][center] *
    (1 + REL_TOL), read off one truncated scan of that radius on
    ``balls``.

    A truncated scan settles every vertex within its radius with the full
    scan's distances, so membership answers exactly what comparing a full
    row against the radius would. The caller keeps the ball only as long as
    its fallback needs it.
    """
    radius = sampling.pivot_dist[level + 1][center] * (1.0 + REL_TOL)
    dist = balls.dist
    return frozenset(x for x in balls.ball(gn.adj, center, radius) if dist[x] < radius)


def _check_representative(gn: WeightedGraph, sp: Spanner, internals: BuildInternals) -> LemmaResult:
    """d_{H0}(v, rep(v, i)) <= (1 + 2*eps) * 2**i for every vertex and level,
    measured inside H0 intersected with H, so a spanner missing H0 edges fails.

    A (v, i) with rep(v, i) = v is at distance 0 and passes unscanned,
    though ``checked`` counts it. Every other (v, i) is grouped by x =
    rep(v, i), across all levels, and one truncated H0 scan runs from each
    distinct x, of radius bound * (1 + REL_TOL) for the largest level in
    x's group, stopped once the group's vertices are settled; H0 is
    undirected, so (v, i) passes when that scan settles v within its own
    level's bound. A scan's distances inside its radius do not depend on
    the radius, and it stops only after every vertex of the group has
    settled, so each verdict is the one a scan of v's own level's radius
    gives. Scans from v and from x sum a path's weights in opposite orders,
    so in floating point they agree only to within about n * 2**-52
    relative, below REL_TOL for any n under 4 million. Hence only a vertex
    the scan leaves unsettled, or settles inside the tolerance band, is a
    suspect, and a full H0 scan from v decides it and supplies the witness,
    exactly as a full scan from every vertex would (in (v, i) order,
    stopping at WITNESS_CAP). Time is the
    sum of the H0 balls around the representatives of other vertices, each
    scanned once, plus the suspects' full scans; memory is one ball's table
    or one row plus O(n * levels) grouping.
    """
    h = internals.hierarchy
    n = gn.n
    h0_adj = subgraph_adjacency(gn.adj, h.h0_edges & sp.edges)
    bounds = [(1.0 + 2.0 * h.eps) * 2.0**i for i in range(h.i_max + 1)]
    groups: dict[int, list[tuple[int, int]]] = {}  # x -> its (v, i), levels ascending
    for i in range(h.i_max + 1):
        for v in range(n):
            x = h.rep(v, i)
            if x != v:  # d(v, v) = 0 passes every bound
                groups.setdefault(x, []).append((v, i))
    suspects = []
    balls = DistanceBalls(n)
    dist = balls.dist
    for x, group in groups.items():
        top = group[-1][1]
        balls.ball(h0_adj, x, bounds[top] * (1.0 + REL_TOL), [v for v, _ in group])
        # dist is INF for a vertex the scan leaves unsettled; a stopped scan
        # has settled every vertex of the group
        suspects.extend((v, i) for v, i in group if dist[v] > bounds[i])
    witnesses = []
    row_of = -1
    for v, i in sorted(suspects):
        if len(witnesses) == WITNESS_CAP:
            break
        if row_of != v:
            row = distances(n, h0_adj, (v,))
            row_of = v
        x = h.rep(v, i)
        if not _within(row[x], bounds[i]):
            witnesses.append((v, i, x, row[x], bounds[i]))
    return LemmaResult("representative", n * (h.i_max + 1), tuple(witnesses))


def _check_distance_in_bunch(
    gn: WeightedGraph,
    sp: Spanner,
    internals: BuildInternals,
    sums: _PathSums,
) -> LemmaResult:
    """d_H(u, v) <= (1 + eps) * d(u, v) for every v in u's shrunken bunch.

    Every center runs a truncated scan of its shrunken bunch radius, an
    unbounded one at the top level, whose bunch is the whole level. The
    members and their distances d(u, v) are this scan's own.

    The spanner side is certified from the records where it can be. A
    record from u to target v whose path is a path of H gives d_H(u, v) <=
    its left-to-right sum (see _path_sums), with no rounding slack, since
    that is how a scan from u on H sums it. So when every member v has such
    a record with sum <= (1 + eps) * d(u, v), every member passes, and the
    H scan is skipped. Otherwise u runs a truncated scan on H reaching its
    farthest member, as without the records. H's rows are built for the
    first such center, so a suite whose records certify every center never
    builds them.
    """
    sampling = internals.sampling
    eps = internals.hierarchy.eps
    n = gn.n
    h_edges = sp.edges
    h_adj = None  # H's rows, built for the first center the records leave uncertified
    in_h: dict[int, dict[int, float]] = {}  # center -> target -> lightest record path inside H
    for r, w in zip(internals.records, sums.total):
        if w == INF:
            continue
        path = r.path
        a = path[0]
        for b in path[1:]:
            if ((a, b) if a < b else (b, a)) not in h_edges:
                break
            a = b
        else:
            lightest = in_h.get(r.center)
            if lightest is None:
                lightest = in_h[r.center] = {}
            if w < lightest.get(r.target, INF):
                lightest[r.target] = w
    delta = 0.5 * (1.0 - eps)
    checked = 0
    witnesses = []
    g_balls, h_balls = DistanceBalls(n), DistanceBalls(n)
    dist_g, dist_h = g_balls.dist, h_balls.dist  # INF outside the ball, as for an unreached vertex
    for u in range(n):
        i = sampling.level_of[u]
        radius = INF if i == sampling.k else delta * sampling.pivot_dist[i + 1][u]
        order = g_balls.ball(gn.adj, u, radius)
        level = sampling.levels[i]
        members = sorted(v for v in order if v != u and dist_g[v] < radius and v in level)
        if not members:
            continue
        checked += len(members)
        lightest = in_h.get(u, {})
        if all(v in lightest and lightest[v] <= (1.0 + eps) * dist_g[v] for v in members):
            continue
        if h_adj is None:
            h_adj = subgraph_adjacency(gn.adj, h_edges)
        reach = (1.0 + eps) * max(dist_g[v] for v in members) * (1.0 + REL_TOL)
        h_balls.ball(h_adj, u, reach)
        for v in members:
            dh = dist_h[v]
            if not _within(dh, (1.0 + eps) * dist_g[v]) and len(witnesses) < WITNESS_CAP:
                witnesses.append((u, v, dist_g[v], dh))
    return LemmaResult("distance_in_bunch", checked, tuple(witnesses))


def _check_half_bunch_containment(internals: BuildInternals, sums: _PathSums) -> LemmaResult:
    """Centers sharing a representative all sit inside the unshrunken bunch of
    the member farthest from that representative.

    The unshrunken bunch is read as the star's pivot ball (see _pivot_ball).
    The records of a group share their target t, so d(star, u) <= w(P_star)
    + w(P_u), the star's path to t and u's path back, each the lightest of
    its center's records in the group. A center u whose bound lies strictly
    below the star's pivot distance is in the ball (see _path_sums for the
    rounding). Only an uncertified center asks for the star's ball, scanned
    once per group and dropped with it; a violator's witness distance comes
    from one full scan from the star.
    """
    sampling = internals.sampling
    gn = internals.normalized
    records = internals.records
    total = sums.total
    k = sampling.k
    groups: dict[tuple[int, int, int], list[int]] = {}
    for idx, r in enumerate(records):
        groups.setdefault((r.center_level, r.scale, r.target), []).append(idx)
    checked = 0
    witnesses = []
    balls = DistanceBalls(gn.n)
    for (level, scale, target), idxs in sorted(groups.items()):
        centers = sorted({(records[idx].center, records[idx].dist_target) for idx in idxs})
        if level == k:
            # top-level bunches are the whole level; containment is definitional
            checked += len(centers)
            continue
        star = max(centers, key=lambda cd: (cd[1], -cd[0]))[0]
        pd = sampling.pivot_dist[level + 1][star]
        lightest: dict[int, float] = {}
        for idx in idxs:
            c = records[idx].center
            if total[idx] < lightest.get(c, INF):
                lightest[c] = total[idx]
        via_star = lightest.get(star, INF)
        ball = row = None
        for u, _ in centers:
            checked += 1
            if via_star + lightest.get(u, INF) < pd:
                continue
            if ball is None:
                ball = _pivot_ball(balls, gn, sampling, level, star)
            if u in ball or len(witnesses) == WITNESS_CAP:
                continue
            if row is None:
                row = distances(gn.n, gn.adj, (star,))
            witnesses.append((level, scale, target, star, u, row[u], pd))
    return LemmaResult("half_bunch_containment", checked, tuple(witnesses))


def _check_paths_intersect(internals: BuildInternals, sums: _PathSums) -> LemmaResult:
    """If two same-level connection paths share a vertex, one of the two
    centers has all four endpoints within its pivot radius.

    Representatives need not belong to the sampled level, so the check reads
    the bunch as a ball: every endpoint strictly closer to the center than
    its next-level pivot, i.e. inside the center's pivot ball (see
    _pivot_ball). Top-level pairs are skipped (no next pivot, so the radius
    is unbounded and the claim is vacuous).

    The pairs are the records a < b whose paths share a vertex, less those
    with a's own (center, target). The rule for one pair: the first center,
    the one whose target is farther (a's on a tie), has its own target and
    the other record's center and target in its ball; failing that, the
    other center has the same for its own. A pair that fails both is a
    witness, (level, a's center and target, b's), in (a, b) order.

    At each shared vertex x the records through x are walked from the last
    back in the rule's order, (-dist_target, index), so a record r is the
    first center of its pair with each record s after it, which the walk
    has passed. The sums certify r against all of them: d(c_r, t_r) <=
    w(P_r), d(c_r, c_s) <= p_r(x) + p_s(x) and d(c_r, t_s) <= p_r(x) +
    q_s(x), where p is a path's weight up to x and q its weight after x
    (see _path_sums). So r passes when w(P_r) and p_r(x) plus the largest
    max(p_s(x), q_s(x)) over the records after it both lie strictly below
    r's pivot distance; otherwise the rule decides each pair of r with a
    record after it. Failing pairs are kept, ascending, as the smallest
    distinct ones up to the WITNESS_CAP the earlier levels leave, so the
    witnesses are the rule's, in its order. A kept pair is not tested
    again at the other vertices its paths share, and once that many are
    kept, a pair not below the largest of them cannot be a witness and is
    not tested either, so on input where most pairs fail the tests soon
    stop. Balls are kept for the level that asked for them.

    ``checked`` sums each record's partners: the union of the records after
    it on each vertex of its path, less those with its own (center,
    target), which are all partners since every path starts at its center.
    Time is the partner sets' C-level unions plus O(1) per record and shared
    vertex where the sums certify, and the balls and pair tests where they
    do not; no global set of pairs is built.
    """
    sampling = internals.sampling
    gn = internals.normalized
    pre, suf = sums.pre, sums.suf
    balls = DistanceBalls(gn.n)
    checked = 0
    witnesses = []
    for level in range(sampling.k):
        pivot = sampling.pivot_dist[level + 1]
        # the level's records, the position of each path's first vertex, and
        # whether the path's sum certifies the record's own target
        recs, first, short = [], [], []
        for r, at, w in zip(internals.records, sums.start, sums.total):
            if r.center_level == level:
                recs.append(r)
                first.append(at)
                short.append(w < pivot[r.center])
        on_vertex: dict[int, list[int]] = {}
        for idx, r in enumerate(recs):
            for w in r.path:
                on_vertex.setdefault(w, []).append(idx)
        center = [r.center for r in recs]
        target = [r.target for r in recs]
        key = list(zip(center, target))
        rank = [0] * len(recs)  # place in the rule's order; reverse keeps ties in index order
        for pos, idx in enumerate(sorted(range(len(recs)), key=lambda i: recs[i].dist_target, reverse=True)):
            rank[idx] = pos
        pd = [pivot[c] for c in center]
        paths = [r.path for r in recs]
        got: dict[int, frozenset[int]] = {}  # this level's balls, read without a (level, center) key

        def holds(a: int, b: int) -> bool:
            """The pair rule's test with a's center first."""
            s = got.get(center[a])
            if s is None:
                s = got[center[a]] = _pivot_ball(balls, gn, sampling, level, center[a])
            return target[a] in s and center[b] in s and target[b] in s

        cap = WITNESS_CAP - len(witnesses)
        failing: list[tuple[int, int]] = []  # the cap smallest distinct failing pairs, ascending
        # once failing holds cap pairs, a pair not below its largest cannot
        # be a witness and is not tested; (INF,) is above every pair, (-1,)
        # below every one
        cut = (INF,) if cap else (-1,)
        for x, through in on_vertex.items():
            if len(through) < 2:
                continue
            walk = sorted(through, key=rank.__getitem__, reverse=True)
            reach = 0.0  # the largest max(p_s(x), q_s(x)) over the records after r
            for pos, r in enumerate(walk):
                at = first[r] + paths[r].index(x)
                p = pre[at]
                if not (short[r] and p + reach < pd[r]):
                    for s in walk[:pos]:
                        if key[s] == key[r]:
                            continue
                        pair = (r, s) if r < s else (s, r)
                        if not pair < cut:
                            continue
                        i = bisect_left(failing, pair)
                        if (i == len(failing) or failing[i] != pair) and not (holds(r, s) or holds(s, r)):
                            failing.insert(i, pair)
                            if len(failing) > cap:
                                failing.pop()
                            if len(failing) == cap:
                                cut = failing[-1]
                q = suf[at]
                far = p if p > q else q
                if far > reach:
                    reach = far
        same_after = [0] * len(recs)  # records after a with a's (center, target)
        seen: dict[tuple[int, int], int] = {}
        for a in range(len(recs) - 1, -1, -1):
            same_after[a] = seen.get(key[a], 0)
            seen[key[a]] = same_after[a] + 1
        for a, ra in enumerate(recs):
            partners: set[int] = set()
            for w in ra.path:
                idxs = on_vertex[w]
                partners.update(idxs[bisect_right(idxs, a):])
            checked += len(partners) - same_after[a]
        for a, b in failing:
            witnesses.append((level, *key[a], *key[b]))
    return LemmaResult("paths_intersect", checked, tuple(witnesses))


def verify_lemma_suite(g: WeightedGraph, sp: Spanner) -> LemmaSuiteReport:
    """Replay the construction-level facts against ``sp.internals``.

    Requires a hierarchical spanner built with keep_internals=True (the
    records and tables are not serialized, so this runs in-process only).
    To check other internals against a spanner's edges, pass
    ``dataclasses.replace(sp, internals=...)``.
    """
    _check_host(g, sp)
    internals = sp.internals
    if not isinstance(internals, BuildInternals):
        raise SpannerError(
            "lemma suite needs hierarchical construction internals; "
            "rebuild with keep_internals=True"
        )
    gn = internals.normalized
    sums = _path_sums(gn, internals.records)
    results = (
        _check_representative(gn, sp, internals),
        _check_distance_in_bunch(gn, sp, internals, sums),
        _check_half_bunch_containment(internals, sums),
        _check_paths_intersect(internals, sums),
    )
    return LemmaSuiteReport(results=results)
