"""Weighted undirected graphs and deterministic shortest-path scans.

Graphs are immutable once constructed: n, edges, adjacency, labels and
weights never change. The one slot written later is a memo, ``_mst``,
which ``trees.mst`` fills on first use with the tree the edges determine,
so no caller can observe the write except as a faster second call.
Every routine here is a pure function: each scan allocates its own state
and shares no buffers, so shared graphs are safe to query concurrently
and a caller may keep one scan's result while running the next.

Determinism contract: shortest-path ties are resolved lexicographically.
Each vertex is labelled with a key (distance, origin, bottleneck) where
origin is the source it was reached from (relevant for multi-source
scans) and bottleneck is the heaviest edge on the path. Among equal keys
the smaller predecessor id wins. Repeated runs therefore return
identical tables, paths, and parent forests.

``scan`` is the Dijkstra kernel for callers that need a parent forest,
an origin or the settlement order. It runs a full loop, whose list
state has length n, or, given a radius, a truncated loop whose dict and
set state holds exactly the settled ball, so it grows with the ball
rather than with n. Both honour the contract above. ``tag_forest_path``
is the one walker over a scan's parent forest: the net hierarchy's H_0
paths and phase 2's connection paths both go through it.

Full scans that read only distances, or distances and bottlenecks from one
source, go through ``distances`` and ``distances_and_bottlenecks``. They key
the heap on (distance, vertex), keep no parent, origin or order, and return
the very dist (and bottleneck) tables a full ``scan`` returns. Graphs and
the verifier's subgraphs get their rows from ``adjacency_from_edges``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DisconnectedGraphError

INF = math.inf

Edge = tuple[int, int, float]


class DisjointSets:
    """Union-find over dense integer ids (path compression + union by size)."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


def edges_connect(n: int, edges: Iterable[tuple]) -> bool:
    dsu = DisjointSets(n)
    for e in edges:
        dsu.union(e[0], e[1])
    return dsu.components == 1


class WeightedGraph:
    """Connected undirected graph, strictly positive weights, dense ids 0..n-1.

    At most one edge per vertex pair and no self loops. ``labels`` optionally
    remembers original external ids for formats that are not 0-based.
    """

    __slots__ = ("n", "edges", "adj", "labels", "_pair_weight", "_mst")

    def __init__(self, n: int, edges: Iterable[Edge], labels: Sequence[int] | None = None):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        canon: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"edge ({u}, {v}) needs a positive finite weight, got {w}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            canon.append((key[0], key[1], float(w)))
        # checked before any allocation of size n, which a bogus vertex
        # count in a file header could make arbitrarily large
        if len(canon) < n - 1:
            raise DisconnectedGraphError(
                f"graph on {n} vertices is not connected: {len(canon)} edges are fewer than n - 1"
            )
        canon.sort()
        if n > 1 and not edges_connect(n, canon):
            raise DisconnectedGraphError(f"graph on {n} vertices is not connected")
        self._assemble(n, tuple(canon), tuple(labels) if labels is not None else None)

    def _assemble(self, n: int, edges: tuple[Edge, ...], labels: tuple[int, ...] | None) -> None:
        """Fill every slot from edges already checked and sorted by (u, v), so
        every adjacency row ascends (see ``adjacency_from_edges``).

        adj and the pair dict hold the very float objects of ``edges``.
        """
        self.n = n
        self.edges = edges
        self.adj = adjacency_from_edges(n, edges)
        self.labels = labels
        self._pair_weight = {(u, v): w for u, v, w in edges}
        self._mst = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._pair_weight

    def weight_of(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self._pair_weight[key]
        except KeyError:
            raise ValueError(f"no edge ({u}, {v})") from None

    def scaled(self, factor: float) -> "WeightedGraph":
        """The same graph with every weight multiplied by ``factor``.

        Scaling keeps ids, uniqueness, connectivity and the (u, v) order of
        the edges, so only the new weights are checked: an underflow to 0 or
        an overflow to inf raises ValueError as the constructor would.
        """
        if not (factor > 0):
            raise ValueError(f"scale factor must be positive, got {factor}")
        edges = []
        for u, v, w in self.edges:
            w *= factor
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"edge ({u}, {v}) needs a positive finite weight, got {w}")
            edges.append((u, v, w))
        g = WeightedGraph.__new__(WeightedGraph)
        g._assemble(self.n, tuple(edges), self.labels)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def adjacency_from_edges(n: int, edges: Iterable[Edge]) -> list[list[tuple[int, float]]]:
    """Adjacency rows for (u, v, w) edges, each row in the order the edges come.

    It checks nothing and does not require connectivity, so verification
    code can probe deliberately broken spanners. Edges sorted by (u, v)
    give ascending rows: the edges (x, v) come in ascending v, after every
    edge (u, x) with u < x, in ascending u. Scans return the same tables
    for any row order.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def scan(n, adj, sources, radius=None):
    """Dijkstra from ``sources`` over ``adj`` with the module's deterministic ties.

    Returns ``(dist, parent, bottleneck, origin, settled, order)``; ``order``
    holds the settled vertices in settlement sequence, and each source has
    parent -1 and origin itself. Both loops key the heap on (dist, origin,
    bottleneck), so they settle vertices in the same sequence:

    - no radius: every vertex reachable from the sources is settled; the
      tables are lists of length n (``dist`` INF, ``parent`` and ``origin``
      -1 where not reached) and ``settled`` is a bytearray of 0/1 flags;
    - ``radius`` given (>= 0): exactly the vertices at distance <= radius
      are settled. A relaxation beyond the radius is skipped before it
      touches any state, so ``dist``, ``parent``, ``bottleneck`` and
      ``origin`` are dicts keyed by the settled ball, ``settled`` is that
      ball as a set, the cost is O(ball), not O(n), and ``n`` is unused.

    Test settlement with ``settled[v]`` after a full scan and with ``v in
    settled`` after a truncated one (``in`` on a bytearray looks for a byte
    value, not an index).
    """
    srcs = sorted(set(sources))
    if radius is not None:
        return _scan_truncated(adj, srcs, radius)
    return _scan_full(n, adj, srcs)


def _scan_full(n, adj, srcs):
    dist = [INF] * n
    parent = [-1] * n
    bottleneck = [0.0] * n
    origin = [-1] * n
    settled = bytearray(n)
    order: list[int] = []
    visit = order.append
    push, pop = heapq.heappush, heapq.heappop
    heap = []  # built from sorted sources, so already in heap order
    for s in srcs:
        dist[s] = 0.0
        origin[s] = s
        heap.append((0.0, s, 0.0, s))
    while heap:
        d, o, b, u = pop(heap)
        # pushes only ever lower a vertex's (dist, origin, bottleneck) key, so
        # its first pop is its final one and later pops are stale
        if settled[u]:
            continue
        settled[u] = 1
        visit(u)
        for v, w in adj[u]:
            if settled[v]:
                continue
            nd = d + w
            dv = dist[v]
            if nd > dv:
                continue
            nb = b if b >= w else w
            if nd < dv or o < origin[v] or (o == origin[v] and nb < bottleneck[v]):
                dist[v] = nd
                origin[v] = o
                bottleneck[v] = nb
                parent[v] = u
                push(heap, (nd, o, nb, v))
            elif o == origin[v] and nb == bottleneck[v] and u < parent[v]:
                parent[v] = u
    return dist, parent, bottleneck, origin, settled, order


def _scan_truncated(adj, srcs, radius):
    dist: dict[int, float] = {}
    parent: dict[int, int] = {}
    bottleneck: dict[int, float] = {}
    origin: dict[int, int] = {}
    settled: set[int] = set()
    order: list[int] = []
    settle, visit = settled.add, order.append
    push, pop = heapq.heappush, heapq.heappop
    heap = []  # built from sorted sources, so already in heap order
    for s in srcs:
        dist[s] = 0.0
        parent[s] = -1
        bottleneck[s] = 0.0
        origin[s] = s
        heap.append((0.0, s, 0.0, s))
    get = dist.get
    while heap:
        d, o, b, u = pop(heap)
        if u in settled:
            continue
        settle(u)
        visit(u)
        for v, w in adj[u]:
            if v in settled:
                continue
            nd = d + w
            if nd > radius:
                continue
            dv = get(v, INF)
            if nd > dv:
                continue
            nb = b if b >= w else w
            if nd < dv or o < origin[v] or (o == origin[v] and nb < bottleneck[v]):
                dist[v] = nd
                origin[v] = o
                bottleneck[v] = nb
                parent[v] = u
                push(heap, (nd, o, nb, v))
            elif o == origin[v] and nb == bottleneck[v] and u < parent[v]:
                parent[v] = u
    return dist, parent, bottleneck, origin, settled, order


def distances(n, adj, sources, dist=None):
    """Distances from the nearest of ``sources``: ``scan``'s dist table, INF
    where a vertex is not reached.

    Given ``dist``, the distances from some earlier sources, the scan lowers
    it in place to the distances from both source sets and returns it.

    A vertex is pushed only when its distance strictly falls, so every
    vertex the scan lowers has exactly one heap entry at its final distance
    and a pop above the vertex's distance is stale.
    """
    if dist is None:
        dist = [INF] * n
    heap = []  # built from sorted sources, so already in heap order
    for s in sorted(set(sources)):
        dist[s] = 0.0
        heap.append((0.0, s))
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


def distances_and_bottlenecks(n, adj, source):
    """``scan``'s dist and bottleneck tables for a single source.

    ``btl[v]`` is the smallest heaviest edge over v's shortest paths. It is
    set on a strict improvement of v's distance and lowered on an exact tie
    whose max(btl[u], w) is smaller. Every u with dist[u] + w == dist[v]
    lies strictly closer to the source, since weights are positive, so it
    settles before v and ``btl[v]`` is final when v pops: the bottleneck
    needs no place in the heap key. (Only a weight below half an ulp of a
    distance, which the float sum absorbs, could put u at v's distance.)
    A settled vertex is never written again.
    """
    dist = [INF] * n
    btl = [0.0] * n
    done = bytearray(n)
    dist[source] = 0.0
    heap = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = 1
        b = btl[u]
        for v, w in adj[u]:
            nd = d + w
            dv = dist[v]
            if nd <= dv:
                if nd < dv:
                    dist[v] = nd
                    btl[v] = b if b >= w else w
                    push(heap, (nd, v))
                # a settled v has dist[v] <= d <= nd, so only a tie can reach one
                elif not done[v]:
                    nb = b if b >= w else w
                    if nb < btl[v]:
                        btl[v] = nb
    return dist, btl


def walk_parents(parent: Sequence[int], v: int) -> list[int]:
    """Vertices from the scan root to v, following parent pointers."""
    chain = [v]
    while parent[v] != -1:
        v = parent[v]
        chain.append(v)
    chain.reverse()
    return chain


def tag_forest_path(parent, x: int, covered: set[int], tags: dict, tag) -> None:
    """Tag the parent-forest path from x up to its first vertex in ``covered``.

    Every vertex passed is added to ``covered``, so paths that share a
    suffix toward the root read that suffix once; each edge passed gets
    ``tag`` unless ``tags`` already holds it (first tag wins). A walk from a
    covered vertex adds nothing. ``covered`` must hold a vertex of every
    path walked, such as the forest's roots.
    """
    while x not in covered:
        covered.add(x)
        p = parent[x]
        tags.setdefault((p, x) if p < x else (x, p), tag)
        x = p


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
