"""Spanning tree primitives: MST, shallow-light trees, and rooted forests.

The shallow-light tree (SLT) balances a shortest-path tree against the
MST: for a parameter eps > 0 it is a spanning tree whose root distances
are at most (1 + eps) times the true graph distances while its total
weight stays within (1 + 2/eps) of the MST weight. ``slt_forest`` builds
it over a root set; the tree of one root r is ``slt_forest(g, (r,), eps)``.

Construction: walk an Euler tour of the MST, relaxing tentative
distances along every tour edge. On first arrival at a vertex whose
tentative distance exceeds (1 + eps) times its true distance, splice in
its shortest path from the root by relaxing along that path. Tour
distance accumulated between consecutive splices pays for the spliced
path weights, which is where the 2/eps term comes from (the Euler tour
costs twice the MST).

The MST of a graph is computed once and memoised on the graph (see
``mst``); ``slt_forest`` takes its tree edges from it. The
forest needs the MST of the graph plus a virtual root joined to its roots
by zero-weight edges, and finds it from the n-1 MST edges plus the root
edges alone: by the cycle property, an edge outside the MST is the largest
edge of a cycle of MST edges, which the augmented graph still contains, so
its MST rejects that edge too (the full argument is in ``slt_forest``).

Everything here is deterministic: MST ties break on (weight, min id,
max id), tour children are visited in ascending id order, and the
shortest-path tree comes from the deterministic scan in ``graph``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DisconnectedGraphError
from .graph import Edge, WeightedGraph, left_sum, scan, spanning_forest, walk_parents

INF = math.inf


def _kruskal(n: int, edges: Iterable[Edge]) -> list[Edge]:
    """The MST's n - 1 edges, ties broken in (w, u, v) order, sorted by (u, v).

    ``edges`` must come in (u, v) order among those of equal weight, as a
    graph's ``iter_edges`` gives them: a stable sort on w then gives the
    (w, u, v) order, and float keys compare faster than tuples.
    """
    picked = list(islice(spanning_forest(n, sorted(edges, key=itemgetter(2))), n - 1))
    if len(picked) != n - 1:
        raise DisconnectedGraphError("cannot span a disconnected graph")
    picked.sort()
    return picked


@dataclass(frozen=True)
class SpanningTree:
    """n-1 edges spanning the host graph."""

    n: int
    edges: tuple[Edge, ...]
    total_weight: float


def mst(g: WeightedGraph) -> SpanningTree:
    """Minimum spanning tree, deterministic under weight ties.

    Computed once per graph and kept in the graph's ``_mst`` slot, which
    nothing else writes; graphs are immutable, so the tree never goes stale.
    Two threads racing here both compute the same tree and one copy wins.
    """
    tree = g._mst
    if tree is None:
        picked = _kruskal(g.n, g.iter_edges())
        tree = SpanningTree(g.n, tuple(picked), left_sum(w for _, _, w in picked))
        g._mst = tree
    return tree


def _tour_rows(n: int, edges: Iterable[Edge]) -> list[list[Edge]]:
    """Each vertex's tree edges, the (u, v, w) tuples themselves, in the
    order ``adjacency_from_edges`` gives its entries: ascending neighbour for
    edges sorted by (u, v). The tour reads the neighbour off the tuple, so
    it allocates no entry per edge."""
    rows: list[list[Edge]] = [[] for _ in range(n)]
    for e in edges:
        rows[e[0]].append(e)
        rows[e[1]].append(e)
    return rows


def _last_parents(
    n: int,
    tree_adj: Sequence[Sequence[Edge]],
    root: int,
    alpha: float,
    goal_dist: Sequence[float],
    goal_parent: Sequence[int],
    edge_weight,
) -> list[int]:
    """Parent array of the shallow-light tree over an explicit MST + SPT.

    ``tree_adj`` holds each vertex's tree edges as (u, v, w) tuples, as
    ``_tour_rows`` gives them; the tour visits children in their row order.

    Tentative distances only ever decrease, so the budget check fires at
    most once per vertex and checking on first arrival is equivalent to
    checking on every tour visit.
    """
    d = [INF] * n
    d[root] = 0.0
    parent = [-1] * n

    def arrive(u: int) -> None:
        if d[u] > alpha * goal_dist[u]:
            # splice: relax along the shortest root-u path, leaving
            # d[x] <= goal_dist[x] for every vertex x on it
            chain = walk_parents(goal_parent, u)
            for a, b in zip(chain, chain[1:]):
                nd = d[a] + edge_weight(a, b)
                if nd < d[b]:
                    d[b] = nd
                    parent[b] = a

    arrive(root)
    stack: list[tuple[int, int, float, Iterable]] = [(root, -1, 0.0, iter(tree_adj[root]))]
    while stack:
        u, tree_parent, w_up, children = stack[-1]
        advanced = False
        for a, b, w in children:
            v = b if a == u else a
            if v == tree_parent:
                continue
            nd = d[u] + w
            if nd < d[v]:
                d[v] = nd
                parent[v] = u
            arrive(v)
            stack.append((v, u, w, iter(tree_adj[v])))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if tree_parent != -1:
                nd = d[u] + w_up
                if nd < d[tree_parent]:
                    d[tree_parent] = nd
                    parent[tree_parent] = u
    return parent


def _parent_edges(g: WeightedGraph, parents: Sequence[int]) -> tuple[Edge, ...]:
    """The edges of g from each vertex to its parent, sorted; a parent of -1
    or outside g (a virtual root) gives none."""
    pairs = sorted((p, v) if p < v else (v, p) for v, p in enumerate(parents[: g.n]) if 0 <= p < g.n)
    return tuple((a, b, g.weight_of(a, b)) for a, b in pairs)


@dataclass(frozen=True)
class SltForest:
    """Shallow-light forest rooted at a vertex set.

    Each component holds one root, and the forest path from u to its root
    has length at most (1 + eps) times d_G(u, roots).
    """

    n: int
    roots: frozenset[int]
    edges: tuple[Edge, ...]
    total_weight: float


def slt_forest(g: WeightedGraph, roots: Iterable[int], eps: float) -> SltForest:
    """Shallow-light tree over a virtual root joined to ``roots`` by zero edges.

    The virtual vertex and its zero-weight edges exist only inside this
    routine; the returned forest contains real edges of g alone.

    The augmented MST comes from Kruskal over mst(g).edges plus the root
    edges, not over all m edges, and is the same tree. Kruskal's order
    (w, u, v) is strict, so every graph has exactly one MST under it. An
    edge e of g outside mst(g) is the largest edge, in that order, of the
    cycle it closes with the mst(g) path between its endpoints; the cycle
    survives in the augmented graph, so its MST excludes e as well. That
    MST therefore lies inside the edges given here, and Kruskal over them
    finds it.
    """
    root_list = sorted(set(roots))
    if not root_list:
        raise ValueError("roots must be nonempty")
    for r in root_list:
        if not (0 <= r < g.n):
            raise ValueError(f"root {r} outside 0..{g.n - 1}")
    if not (eps > 0):
        raise ValueError(f"slt_forest needs eps > 0, got {eps}")

    virtual = g.n
    n_aug = g.n + 1
    # the scan settles the virtual source first, so the roots' rows need no
    # edge back to it and g's rows serve as they are
    aug_adj = g.adj + [[(r, 0.0) for r in root_list]]

    # both parts ascend in (u, v), and the root edges alone weigh 0
    aug_edges = list(mst(g).edges) + [(r, virtual, 0.0) for r in root_list]
    tree_edges = _kruskal(n_aug, aug_edges)
    dist, parent_spt, _, _, _, _ = scan(n_aug, aug_adj, (virtual,))

    def aug_weight(a: int, b: int) -> float:
        return 0.0 if virtual in (a, b) else g.weight_of(a, b)

    tree_adj = _tour_rows(n_aug, tree_edges)
    parents = _last_parents(n_aug, tree_adj, virtual, 1.0 + eps, dist, parent_spt, aug_weight)
    edges = _parent_edges(g, parents)
    return SltForest(g.n, frozenset(root_list), edges, left_sum(w for _, _, w in edges))
