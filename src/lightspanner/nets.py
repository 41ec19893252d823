"""Nested delta-nets, the H_0 connector subgraph, and representatives.

A delta-net N of a graph satisfies covering (every vertex is within
delta of N) and packing (net members are pairwise further than delta
apart). The hierarchy stacks nets at doubling scales delta = 2^i for
i = 0 .. ceil(log2 n), each net seeded by the one above it so the levels
are nested, with level -1 holding every vertex. It expects a graph
normalized so the MST weighs n (see spanner.normalize), which caps the
diameter at n and therefore caps the number of levels.

Together with the nets we build H_0: for each vertex v whose highest net
level is i, H_0 contains a shortest path from v to the nearest member of
each of the next t = ceil(log2(1/eps)) levels above i. Chaining those
hops climbs from any vertex v to a level-i net member rep(v, i) over a
path of length at most (1 + 2*eps) * 2^i that lies entirely inside H_0.
That bound is what makes eps < 1/10 worth enforcing; the geometric tail
needs 2^-t <= eps and a bit of slack. Representatives are not stored:
NetHierarchy.rep climbs the nearest-member tables on demand.

The build scans the top net once. The greedy extension that makes level i
lowers those tables in place, one new member at a time (graph.scan), so each
distinct net keeps its parent forest and nearest-member table from the scans
that chose its members. A level that adds no member shares the rows of the
level above; the top levels of a normalized graph often repeat the top vertex.

Structures are frozen after construction and safe to share across
threads; building is single-threaded and deterministic.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .graph import WeightedGraph, scan, tag_forest_path
from .trees import mst

EPS_SAFE_LIMIT = 0.1


def check_eps(eps: float, unsafe_eps: bool = False) -> None:
    """Reject eps outside (0, 1/10) unless the caller opts out explicitly."""
    if unsafe_eps:
        if not (0 < eps < 1):
            raise ValueError(f"eps must be in (0, 1) even with unsafe_eps, got {eps}")
        return
    if not (0 < eps < EPS_SAFE_LIMIT):
        raise ValueError(
            f"eps must be in (0, {EPS_SAFE_LIMIT}); got {eps}. "
            "Pass unsafe_eps=True (CLI: --unsafe-eps) to override; the published "
            "guarantee thresholds are void above the limit."
        )


@dataclass(frozen=True)
class DeltaNet:
    delta: float
    members: tuple[int, ...]  # ascending vertex ids

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.members, v)
        return i < len(self.members) and self.members[i] == v


def greedy_delta_net(g: WeightedGraph, delta: float) -> DeltaNet:
    """Greedy net: scan ids ascending, add any vertex further than delta from the net."""
    if not (delta >= 0):
        raise ValueError(f"delta must be nonnegative, got {delta}")
    tables = scan(g.n, g.adj, ())[:4]
    return DeltaNet(float(delta), tuple(_greedy_extension(g.adj, tables, delta)))


def _greedy_extension(adj, tables, delta: float) -> list[int]:
    """Vertices the greedy pass adds, ascending; ``tables``, the (dist,
    parent, bottleneck, origin) lists of a scan from the net so far, are
    lowered in place to those of a scan from the extended net."""
    dist = tables[0]
    added = []
    # one ascending pass suffices: adding a member only shrinks distances,
    # so vertices behind the scan pointer stay covered
    for v in range(len(dist)):
        if dist[v] > delta:
            added.append(v)
            scan(len(dist), adj, (v,), tables=tables)
    return added


def climb_step(eps: float) -> int:
    """t = ceil(log2(1/eps)), the levels one H_0 climb spans."""
    return math.ceil(math.log2(1.0 / eps))


def max_level(n: int) -> int:
    """ceil(log2 n) computed exactly on the integer."""
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True)
class NetHierarchy:
    """Nested nets, nearest-member tables and H_0 edges.

    levels[i] for i in -1 .. i_max; nearest[j][v] is v's closest member of
    level j >= 0. Representatives are not stored: rep(v, i) climbs the
    nearest-member tables on demand, ``step`` levels at a time.
    """

    eps: float
    i_max: int
    levels: dict[int, DeltaNet]
    nearest: tuple[tuple[int, ...], ...]
    h0_edges: frozenset[tuple[int, int]]
    step: int = field(init=False, repr=False, compare=False)  # climb_step(eps)

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", climb_step(self.eps))

    def rep(self, v: int, i: int) -> int:
        """v's level-i representative: its nearest member of level i mod t,
        then nearest members t levels up at a time, t = ``step``."""
        if i < 0:
            return v
        t = self.step
        nearest = self.nearest
        j = i % t
        x = nearest[j][v]
        while j < i:
            j += t
            x = nearest[j][x]
        return x


def _require_normalized(g: WeightedGraph) -> None:
    w = mst(g).total_weight
    if abs(w - g.n) > 1e-6 * g.n:
        raise ValueError(
            f"hierarchy expects a normalized graph with MST weight n={g.n}, "
            f"got {w}; run spanner.normalize first"
        )


def build_net_hierarchy(g: WeightedGraph, eps: float, *, unsafe_eps: bool = False) -> NetHierarchy:
    check_eps(eps, unsafe_eps)
    _require_normalized(g)
    n = g.n
    i_max = max_level(n)
    t = climb_step(eps)

    # rows[j] = (parent, origin) of level j's tables. The top net is a single
    # vertex: 2^i_max is at least the diameter, so any one vertex covers all.
    members: tuple[int, ...] = (0,)
    _, parent, _, origin = tables = scan(n, g.adj, members)[:4]
    levels: dict[int, DeltaNet] = {i_max: DeltaNet(float(2**i_max), members)}
    rows = {i_max: (tuple(parent), tuple(origin))}
    net_level = [-1] * n  # the highest level holding v: the one that added it
    net_level[0] = i_max
    for i in range(i_max - 1, -1, -1):
        added = _greedy_extension(g.adj, tables, float(2**i))
        if added:
            members = tuple(sorted(members + tuple(added)))
            rows[i] = (tuple(parent), tuple(origin))
            for v in added:
                net_level[v] = i
        else:
            rows[i] = rows[i + 1]
        levels[i] = DeltaNet(float(2**i), members)
    levels[-1] = DeltaNet(0.0, tuple(range(n)))

    # H_0: each vertex at net level i connects to its nearest member of
    # levels i+1 .. i+t along level j's parent forest. The walks of one
    # level share suffixes, so each stops at the first vertex that level's
    # members or an earlier walk already cover; only h0's keys are read.
    h0: dict[tuple[int, int], None] = {}
    for j in range(i_max + 1):
        forest = rows[j][0]
        covered = set(levels[j].members)
        for v in range(n):
            if j - t <= net_level[v] <= j - 1:
                tag_forest_path(forest, v, covered, h0, None)

    return NetHierarchy(
        eps=eps,
        i_max=i_max,
        levels=levels,
        nearest=tuple(rows[j][1] for j in range(i_max + 1)),
        h0_edges=frozenset(h0),
    )
