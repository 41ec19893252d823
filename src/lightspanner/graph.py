"""Weighted undirected graphs and deterministic shortest-path scans.

Every graph is checked by ``WeightedGraph.__init__``, the readers' graphs
included: they parse and hand it their edges. The one other way in is
``scaled``, whose graph keeps its host's checked ids and order and checks
only its new weights.

Graphs are immutable once constructed: n, edges, adjacency, labels and
weights never change. A graph holds one per-edge structure at a time. Until
its rows are read it keeps each edge as a (u, v, w) tuple of ``_edges``,
sorted by (u, v) with u < v: 96 bytes per edge on 64-bit CPython, with the
float and the tuple's slot. The first read of ``adj`` builds the rows
(``adjacency_from_edges``) and then releases that tuple, so a scanned graph
keeps two row entries (v, w) and one float per edge, 152 bytes, where both
structures would take 224; a graph that is never scanned builds no rows.
Every reader takes whichever structure is there: ``weight_of`` and
``has_edge`` bisect the tuple or row u, ``iter_edges`` walks either in (u, v)
order, and ``edges`` returns the tuple or builds an equal one from the rows.
No per-edge table outlives construction. ``_mst`` is a memo too, filled on
first use with the tree the edges determine (by ``trees.mst``). No caller
can observe these writes except as a faster second call, or as less memory.
Threads racing on a first read build equal values, and one of them is kept;
``_adj`` is assigned before ``_edges`` is released, and readers look at
``_edges`` first, so no reader meets a graph that holds neither.
``scan`` and the distance kernels allocate their own state, so shared
graphs are safe to query concurrently and a caller may keep one scan's
result while running the next. Two exceptions serve one caller: ``scan``
handed an earlier scan's tables lowers them in place, and the tables of
``BallScanner`` and ``DistanceBalls`` serve ball after ball.

Determinism contract: shortest-path ties are resolved lexicographically.
Each vertex is labelled with a key (distance, origin, bottleneck) where
origin is the source it was reached from (relevant for multi-source
scans) and bottleneck is the heaviest edge on the path. Among equal keys
the smaller predecessor id wins. Repeated runs therefore return
identical tables, paths, and parent forests.

``scan`` is the full Dijkstra kernel for callers that need a parent forest,
an origin or the settlement order of every vertex reached; its list state
has length n. ``BallScanner`` runs single-source scans truncated at a
radius: its n-length tables are allocated once, and each scan writes and
later resets only the entries of its ball, so the cost of a scan grows
with the ball rather than with n. Both honour the contract above.
``tag_forest_path`` is the one walker over a scan's parent forest: the net
hierarchy's H_0 paths and phase 2's connection paths both go through it.

Full scans that read only distances, or distances and bottlenecks from one
source, go through ``distances`` and ``distances_and_bottlenecks``. They key
the heap on (distance, vertex), keep no parent, origin or order, and return
the very dist (and bottleneck) tables a full ``scan`` returns. Truncated
scans that read only distances, the verifier's balls, go through
``DistanceBalls``: the same loop, cut at a radius, on one reused n-length
dist table, and able to stop once given targets have settled;
``BallScanner`` serves phase 2, which reads parents. Spanners and
the verifier's subgraphs get their rows from ``subgraph_adjacency``, whose
rows share the host's entries.

``bucket_lowered`` lowers a table to the one ``distances`` settles, on a
table of distance slots instead of a heap: a vertex is appended to slot
int(d * (1 / width)) when its label d strictly falls, and the slots are
drained in order, each until it is stable. Slots may be wider than the
lightest edge, so a vertex lowered after it ran is run again (a
re-settle); a scan that re-settles more than n vertices hands the rest to
the heap. The table is not reused cyclically: ``bucket_table`` sizes it
from one scan, up to a ceiling above every distance a scan from any
vertex meets, which also stands for "not reached yet", so no heavy edge
lengthens it. Its width is max(half the lightest edge, 16 * ecc / n):
Dial's on G(n,p) inputs, and on geometric ones, whose lightest edge is
far below the median, a walk of at most n / 8 slots. Every label is the
left-to-right float sum along a walk, and the table ends where no edge
lowers it, so it equals the heap's bit for bit.
``ring_distances_and_bottlenecks`` returns ``distances_and_bottlenecks``'s
tables on Dial's bucket queue: int(max_w / delta) + 2 slots of width
delta, half the lightest edge, reused cyclically, where every vertex u
with dist[u] + w <= dist[v] lies in an earlier slot than v. A slot walked
or made costs about what one heap push and pop cost, so the ring pays
when a scan's walk and its ring together come to at most one slot per
vertex: ``ring_pays`` checks that from one scan's eccentricity and the
heaviest edge, so one heavy edge keeps the heap. Measured on the stretch
check's first source, G(n,p) n=4096 has 280-350 vertices per slot, and
its G and H scans fell from 22-24 to 14-15 ms per source; geometric
graphs (n=512 and 8192) have 0.1-0.4 and keep G off the ring.

``repaired_distances`` gives ``distances``'s table on a graph from the
table of one of its subgraphs H: it relaxes the edges H lacks and settles,
on a bucket table, only the vertices they bring closer, so where H keeps
most edges it settles a fraction of the vertices a fresh scan settles.
``TightBottlenecks`` reads ``distances_and_bottlenecks``'s bottleneck
table one entry at a time from the distances alone, walking back over
strictly closer tight predecessors; it holds where no weight vanishes in
a distance's rounding. On geometric inputs the stretch check gets G's
tables from these two, H's scan and a W read only above the alpha line.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DisconnectedGraphError

INF = math.inf

Edge = tuple[int, int, float]


def left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as CPython before 3.12 computes it: 0 plus each value,
    left to right, one rounding per addition.

    From 3.12 on ``sum`` compensates float rounding, so its last digits, and
    with them an MST's weight, the normalized weights and every artifact,
    would depend on the interpreter's version.
    """
    total = 0
    for x in values:
        total += x
    return total


def spanning_forest(n: int, edges: Iterable[tuple]) -> Iterator[tuple]:
    """The edges, in the order given, that join two components of the ones before.

    One union-find over 0..n-1 with an inlined path-halving find, so an edge
    costs no Python call; a generator yields only the at most n - 1 joins.
    """
    parent = list(range(n))
    for e in edges:
        a, b = e[0], e[1]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            yield e


def edges_connect(n: int, edges: Iterable[tuple]) -> bool:
    return n - sum(1 for _ in spanning_forest(n, edges)) == 1


class WeightedGraph:
    """Connected undirected graph, strictly positive weights, dense ids 0..n-1.

    At most one edge per vertex pair and no self loops. ``labels`` optionally
    remembers original external ids for formats that are not 0-based.
    """

    __slots__ = ("n", "m", "_edges", "_adj", "labels", "_mst")

    def __init__(self, n: int, edges: Iterable[Edge], labels: Sequence[int] | None = None):
        """Check and keep n vertices and the (u, v, w) ``edges``, given in any
        order and orientation: the one place a graph's rules are checked.

        n < 1 raises ValueError before any edge is read. Each edge is checked
        as it is taken, so a ValueError (an id outside 0..n-1, a self loop, a
        weight not positive and finite, a pair given twice in either
        orientation) is about the edge ``edges`` yielded last. After the last
        edge only DisconnectedGraphError is raised, before any allocation of
        size n, which a bogus vertex count in a file header could make
        arbitrarily large. The graph keeps the edges' own id ints and floats.
        """
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        pair_weight: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"weight {w} is not positive and finite, edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in pair_weight:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            pair_weight[key] = float(w)
        if len(pair_weight) < n - 1:
            raise DisconnectedGraphError(
                f"graph on {n} vertices is not connected: {len(pair_weight)} edges are fewer than n - 1"
            )
        # each pair's key tuple is freed as its edge tuple is made, so the
        # two sets of tuples are never alive together
        canon = []
        take, keep = pair_weight.popitem, canon.append
        for _ in range(len(pair_weight)):
            (u, v), w = take()
            keep((u, v, w))
        del pair_weight
        canon.sort()
        if n > 1 and not edges_connect(n, canon):
            raise DisconnectedGraphError(f"graph on {n} vertices is not connected")
        self._assemble(n, tuple(canon), tuple(labels) if labels is not None else None)

    def _assemble(self, n: int, edges: tuple[Edge, ...], labels: tuple[int, ...] | None) -> None:
        """Fill every slot from edges already checked, each (u, v, w) with
        u < v, and sorted by (u, v).

        Every reader relies on that order: each adjacency row ascends (see
        ``adjacency_from_edges``), ``iter_edges`` yields the edges in it
        from the tuple or the rows alike, and ``weight_of`` and ``has_edge``
        find the edge (u, v, w) by bisecting for (u, v), which sorts just
        before it, in the tuple, or for (v,) in row u. adj holds the very
        float objects of ``edges``.
        """
        self.n = n
        self.m = len(edges)
        self._edges = edges
        self.labels = labels
        self._adj = self._mst = None

    @property
    def adj(self) -> list[list[tuple[int, float]]]:
        """Adjacency rows, ascending, built on first read, which then
        releases the edge tuple (see the module docstring)."""
        adj = self._adj
        if adj is None:
            edges = self._edges
            if edges is None:  # another thread built the rows and released the tuple
                return self._adj
            adj = self._adj = adjacency_from_edges(self.n, edges)
            self._edges = None
        return adj

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The (u, v, w) edges, u < v, sorted by (u, v): the kept tuple, or
        a new one built from the rows once they exist."""
        edges = self._edges
        return edges if edges is not None else tuple(_upper_entries(self._adj))

    def iter_edges(self) -> Iterator[Edge]:
        """The values of ``edges`` in their order, without building a tuple
        once the rows exist: the walk every ordered reader takes."""
        edges = self._edges
        return iter(edges) if edges is not None else _upper_entries(self._adj)

    def total_weight(self) -> float:
        return left_sum(w for _, _, w in self.iter_edges())

    def _weight(self, u: int, v: int) -> float | None:
        """The weight of the edge joining u and v, in either orientation, or
        None; a bisect of the tuple, or of row u once the tuple is gone."""
        if v < u:
            u, v = v, u
        edges = self._edges
        if edges is not None:
            i = bisect_left(edges, (u, v))
            if i < len(edges):
                e = edges[i]
                if e[0] == u and e[1] == v:
                    return e[2]
            return None
        if u < 0 or v >= self.n:
            return None
        row = self._adj[u]
        i = bisect_left(row, (v,))
        if i < len(row):
            x, w = row[i]
            if x == v:
                return w
        return None

    def has_edge(self, u: int, v: int) -> bool:
        return self._weight(u, v) is not None

    def weight_of(self, u: int, v: int) -> float:
        w = self._weight(u, v)
        if w is None:
            raise ValueError(f"no edge ({u}, {v})")
        return w

    def edges_in(self, tags: Mapping[tuple[int, int], str]) -> Iterator[tuple[int, int, float, str]]:
        """(u, v, w, tags[u, v]) for each edge whose (u, v) is a key of
        ``tags``, in ascending (u, v): one walk of the edges, no lookup.

        Once the walk ends, a key left over, one that is no edge (u, v) with
        u < v, raises ValueError.
        """
        found = 0
        get = tags.get
        for u, v, w in self.iter_edges():
            tag = get((u, v))
            if tag is not None:
                found += 1
                yield u, v, w, tag
        if found != len(tags):
            # every key the walk found is an edge (u, v), u < v, so a stray one is not
            stray = next(key for key in tags if not (key[0] < key[1] and self.has_edge(*key)))
            raise ValueError(f"no edge ({stray[0]}, {stray[1]})")

    def scaled(self, factor: float) -> "WeightedGraph":
        """The same graph, without rows, with every weight multiplied by ``factor``.

        Scaling keeps ids, uniqueness, connectivity and the (u, v) order of
        the edges, so only the new weights are checked: an underflow to 0 or
        an overflow to inf raises ValueError as the constructor would. Its
        edges hold the host's own id ints, and each scaled weight is one
        float that the edges and the rows share.
        """
        if not (factor > 0):
            raise ValueError(f"scale factor must be positive, got {factor}")
        edges = []
        for u, v, w in self.iter_edges():
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
        if self is other:
            return True
        return (
            self.n == other.n
            and self.m == other.m
            and all(a == b for a, b in zip(self.iter_edges(), other.iter_edges()))
        )

    def __hash__(self) -> int:
        # equal graphs walk equal edges in one order, so they sum to one weight
        return hash((self.n, self.m, self.total_weight()))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _upper_entries(adj) -> Iterator[Edge]:
    """(u, v, w) for each entry (v, w) of row u with u < v, in (u, v) order:
    a row ascends, so its entries above u follow the bisect for (u,)."""
    for u, row in enumerate(adj):
        for v, w in row[bisect_left(row, (u,)):]:
            yield u, v, w


def adjacency_from_edges(n: int, edges: Iterable[Edge]) -> list[list[tuple[int, float]]]:
    """Adjacency rows for (u, v, w) edges, each row in the order the edges come.

    It checks nothing and does not require connectivity, so verification
    code can probe deliberately broken spanners. Edges sorted by (u, v)
    give ascending rows: the edges (x, v) come in ascending v, after every
    edge (u, x) with u < x, in ascending u. Scans return the same tables
    for any row order.

    Each row's tuples are allocated together, so a scan reads a row from
    adjacent memory. The per-vertex lists live until every row is built:
    freed early, their scattered slots would take the new tuples.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    wts: list[list[float]] = [[] for _ in range(n)]
    for u, v, w in edges:
        nbrs[u].append(v)
        wts[u].append(w)
        nbrs[v].append(u)
        wts[v].append(w)
    return [list(zip(vs, ws)) for vs, ws in zip(nbrs, wts)]


def subgraph_adjacency(adj, pairs) -> list[list[tuple[int, float]]]:
    """The rows of ``adj`` kept to the edges ``pairs`` (keys (u, v), u < v).

    Kept entries are the host rows' own tuples, in the host's order, so a
    graph's rows give those ``adjacency_from_edges`` builds from the sorted
    pairs. Like it, this checks nothing and needs no connectivity. Each
    vertex's kept neighbours go into a set first, so a row entry costs one
    int lookup, not a (u, v) key made and looked up: few pairs, such as
    H0's, cost little more than the walk of the rows.
    """
    kept: list[set[int]] = [set() for _ in adj]
    for u, v in pairs:
        kept[u].add(v)
        kept[v].add(u)
    return [[e for e in row if e[0] in near] for row, near in zip(adj, kept)]


def scan(n, adj, sources, tables=None):
    """Dijkstra from ``sources`` over ``adj`` with the module's deterministic ties.

    Returns ``(dist, parent, bottleneck, origin, settled, order)``: tables of
    length n (``settled`` a bytearray of 0/1 flags) and the settled vertices
    in settlement sequence. Every vertex reachable from the sources is
    settled; ``dist`` is INF, ``parent`` and ``origin`` -1 and ``settled`` 0
    where one is not reached. Each source has parent -1 and origin itself.
    Scans truncated at a radius from one source go through ``BallScanner``.

    Given ``tables``, the (dist, parent, bottleneck, origin) lists of an
    earlier scan, the scan lowers them in place to the tables of a scan from
    both source sets, settling (and listing in ``order``) only the vertices
    whose key falls. They match because new sources only lower keys; a
    vertex whose key changes takes a new source as its origin, so every
    predecessor that ties it for parent has that origin too and changed in
    the same pass; and unchanged vertices keep their parent. The tables are
    the lexicographic minimum over all sources, in any order of addition.
    """
    if tables is None:
        tables = [INF] * n, [-1] * n, [0.0] * n, [-1] * n
    dist, parent, bottleneck, origin = tables
    settled = bytearray(n)
    order: list[int] = []
    visit = order.append
    push, pop = heapq.heappush, heapq.heappop
    heap = []  # built from sorted sources, so already in heap order
    for s in sorted(set(sources)):
        if dist[s]:  # a source of the given tables already has the least key
            dist[s] = 0.0
            parent[s] = -1
            bottleneck[s] = 0.0
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


class BallScanner:
    """Single-source scans truncated at a radius, over tables kept between scans.

    ``dist``, ``parent``, ``bottleneck`` and ``settled`` have one entry per
    vertex and are allocated once, by the constructor. ``ball(adj, source,
    radius)`` settles exactly the vertices within ``radius`` of the source,
    with the entries a full ``scan`` from it gives them, and returns them in
    settlement order. Outside that ball every entry reads as unreached:
    ``dist`` INF, ``parent`` -1, ``bottleneck`` 0.0, ``settled`` 0. The
    tables and the returned list hold until the next ``ball`` call, which
    first resets the entries of the previous ball, so a scan costs O(ball),
    not O(n). ``adj`` may change between calls but has at most n rows.

    A scanner is one caller's working memory: callers that keep two balls at
    once, or run on two threads, each need their own.
    """

    __slots__ = ("dist", "parent", "bottleneck", "settled", "order")

    def __init__(self, n: int):
        self.dist = [INF] * n
        self.parent = [-1] * n
        self.bottleneck = [0.0] * n
        self.settled = bytearray(n)
        self.order: list[int] = []

    def ball(self, adj, source: int, radius: float) -> list[int]:
        dist, parent, bottleneck, settled = self.dist, self.parent, self.bottleneck, self.settled
        # every vertex the last scan wrote was pushed within its radius and
        # so settled: its order lists all of them
        for v in self.order:
            dist[v] = INF
            parent[v] = -1
            bottleneck[v] = 0.0
            settled[v] = 0
        order = self.order = []
        visit = order.append
        push, pop = heapq.heappush, heapq.heappop
        dist[source] = 0.0
        # with one source the origin is the same everywhere, so the key of
        # ``scan`` drops it: (dist, bottleneck, vertex)
        heap = [(0.0, 0.0, source)]
        while heap:
            d, b, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            visit(u)
            for v, w in adj[u]:
                if settled[v]:
                    continue
                nd = d + w
                # skipped before it touches any state, so only the ball is written
                if nd > radius:
                    continue
                dv = dist[v]
                if nd > dv:
                    continue
                nb = b if b >= w else w
                if nd < dv or nb < bottleneck[v]:
                    dist[v] = nd
                    bottleneck[v] = nb
                    parent[v] = u
                    push(heap, (nd, nb, v))
                elif nb == bottleneck[v] and u < parent[v]:
                    parent[v] = u
        return order


class DistanceBalls:
    """Single-source balls truncated at a radius that keep distances only.

    ``dist`` has one entry per vertex and is allocated once, by the
    constructor. ``ball(adj, source, radius)`` settles exactly the vertices
    within ``radius`` of the source, at the distances ``distances`` gives
    them, and returns them in settlement order; every other entry of
    ``dist`` reads INF. Like ``distances`` it keys the heap on (d, v),
    pushes a vertex only when its distance strictly falls within the
    radius, and skips a pop above the vertex's distance, so it keeps no
    parent, bottleneck or settled flag. ``adj`` may change between calls
    but has at most n rows.

    Given ``targets``, the ball stops right after the last of them settles,
    before that vertex's edges are read. Its settled vertices hold their
    final distances, and the vertices still on the heap tentative ones, no
    smaller than any settled distance. A target outside the radius never
    settles, so the ball runs to its end, as it does without targets. Each
    call first resets the entries the previous one wrote: every such vertex
    was settled or is still on the previous heap, so a ball costs O(ball),
    not O(n).

    An instance is one caller's working memory: callers that keep two balls
    at once, or run on two threads, each need their own.
    """

    __slots__ = ("dist", "order", "heap")

    def __init__(self, n: int):
        self.dist = [INF] * n
        self.order: list[int] = []
        self.heap: list[tuple[float, int]] = []

    def ball(self, adj, source: int, radius: float, targets: Iterable[int] | None = None) -> list[int]:
        dist = self.dist
        for v in self.order:
            dist[v] = INF
        for _, v in self.heap:
            dist[v] = INF
        order = self.order = []
        visit = order.append
        left = () if targets is None else set(targets)
        push, pop = heapq.heappush, heapq.heappop
        dist[source] = 0.0
        heap = self.heap = [(0.0, source)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            visit(u)
            if u in left:
                left.remove(u)
                if not left:
                    break
            for v, w in adj[u]:
                nd = d + w
                # tested before it touches any state, so only the ball is written
                if nd < dist[v] and nd <= radius:
                    dist[v] = nd
                    push(heap, (nd, v))
        return order


def distances(n, adj, sources):
    """Distances from the nearest of ``sources``: ``scan``'s dist table, INF
    where a vertex is not reached.

    A vertex is pushed only when its distance strictly falls, so every
    vertex reached has exactly one heap entry at its final distance and a
    pop above the vertex's distance is stale.
    """
    dist = [INF] * n
    heap = []  # built from sorted sources, so already in heap order
    for s in sorted(set(sources)):
        dist[s] = 0.0
        heap.append((0.0, s))
    return _lowered(adj, dist, heap)


def _lowered(adj, dist, heap):
    """``dist`` once the (distance, vertex) ``heap`` is settled over
    ``adj``: the loop of ``distances``, where ``bucket_lowered`` hands over
    too. The heap holds an entry (dist[v], v) for each vertex v whose edges
    are still to be relaxed; an entry above its vertex's distance is stale."""
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


# bucket_table's width is at least BUCKET_SPREAD * ecc / n, so a walk up to
# 2 * ecc passes at most 2 * n / BUCKET_SPREAD slots
BUCKET_SPREAD = 16


def bucket_table(n: int, delta: float, dist: Sequence[float]) -> tuple[float, int, float] | None:
    """The (width, slots, ceiling) of ``bucket_lowered`` scans from any
    vertex on a graph H of n vertices, or on a graph that contains H,
    whose lightest edge weighs 2 * ``delta``, given ``dist``, the
    ``distances`` table of H from one vertex x0; None where that scan
    missed a vertex.

    The width is max(delta, BUCKET_SPREAD * ecc / n), ecc = max(dist):
    Dial's where weights lie within a bounded ratio, and otherwise wide
    enough that the walk passes at most 2 * n / BUCKET_SPREAD slots, so a
    few very light edges cannot stretch it.

    The ceiling, 2 * ecc * (1 + 2**-20), lies above every distance those
    scans settle, so it can stand for "not reached yet". A scan from x
    reaches y along the walk from x back to x0 and on to y in H, and its
    distance is at most that walk's left-to-right float sum (see
    ``bucket_lowered``). The two halves' exact sums are at most their
    float sums in ``dist``, each at most ecc, times (1 - u)**-n, and the
    walk's float sum is at most its exact sum times (1 + u)**(2n), for
    u = 2**-53; for n below 2**30 that is below the ceiling. A graph that
    contains H has no longer distances. The slots are int(ceiling * (1 /
    width)) + 1, which ``bucket_lowered`` computes from the same floats,
    so any label up to the ceiling has a slot, and there are at most
    n / 8 + 1 of them.
    """
    ecc = max(dist)
    if ecc == INF:
        return None
    width = max(delta, BUCKET_SPREAD * ecc / n)
    ceiling = 2.0 * ecc * (1.0 + 2.0**-20)
    return width, int(ceiling * (1.0 / width)) + 1, ceiling


def bucket_lowered(adj, dist, pending, width, slots) -> int:
    """Lower ``dist`` in place to the table a heap would settle from it
    over ``adj``, where ``pending`` lists the vertices whose edges are still
    to be relaxed; returns the number of re-settles.

    Slot k of a table of ``slots`` (not reused cyclically) holds the
    vertices whose label d has int(d * (1 / width)) == k, so every entry
    of ``dist``, a ceiling that stands for "not reached yet" included, must
    fall in one (see ``bucket_table``). A vertex is appended to its slot
    when its label strictly falls. The slots are drained in order, each
    until it is stable: a vertex met with its ``done`` flag clear is
    processed at its current label, relaxing its edges, and an entry met
    with the flag set is stale. Slots may be wider than the lightest edge,
    so a vertex can be lowered after it was processed; its flag is then
    cleared and it is processed again, a re-settle. Float addition and
    multiplication are monotone, so a processed label's slot is the one
    being drained and no label falls into a slot already passed. Once more
    than len(dist) re-settles have run, the remaining entries finish on
    ``distances``'s heap loop (``_lowered``), so the re-settles of a slot
    crowded with light edges add at most about one scan's work.

    Every label set is the left-to-right float sum along a walk from a
    starting label, and every vertex lowered or pending has relaxed its
    edges from its final label. So no such edge lowers the final table,
    and by induction along the heap's shortest paths each final label is
    at most the heap's, and as such a sum at least the heap's: the two
    tables agree bit for bit wherever the heap's lie below the ceiling.
    """
    inv = 1.0 / width
    table = [[] for _ in range(slots)]
    for v in pending:
        table[int(dist[v] * inv)].append(v)
    done = bytearray(len(dist))
    again = 0
    for bucket in table:
        # entries appended to this slot while it drains are met here too
        for u in bucket:
            if done[u]:
                continue
            done[u] = 1
            d = dist[u]
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    table[int(nd * inv)].append(v)
                    if done[v]:
                        done[v] = 0
                        again += 1
                        if again > len(dist):
                            done[u] = 0  # u's row was cut short
                            heap = [(dist[y], y) for entries in table for y in entries if not done[y]]
                            heapq.heapify(heap)
                            _lowered(adj, dist, heap)
                            return again
    return again


def repaired_distances(adj, extra, dist_h, width, slots):
    """``distances(n, adj, (x,))`` from ``dist_h``, the table ``distances``
    gives from x on a subgraph H of ``adj``, whose edges keep their weights,
    with a ceiling in place of INF where there is one.

    ``extra`` holds the (u, v, w) edges of ``adj`` that H lacks. Each
    relaxes its nearer end's H distance across it, and only the vertices
    whose distance strictly falls go to ``bucket_lowered``, on a table of
    ``slots`` slots of ``width`` that holds every entry of ``dist_h``. A
    vertex whose distance does not fall is never processed: every H edge
    it has already holds in ``dist_h``, and every other edge was relaxed
    from it first. So the scan settles only the vertices whose distance
    falls.

    Every label is the left-to-right float sum along a graph path from x,
    each the least over H's paths at the start, and the loop lowers a
    label only to such a sum. Float addition is monotone, so the labels
    that settle are the least such sums over the graph's paths, as in
    ``distances``: the two tables agree bit for bit.
    """
    dist = list(dist_h)
    lowered = []
    for u, v, w in extra:
        du = dist_h[u]
        dv = dist_h[v]
        if du < dv:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                lowered.append(v)
        elif dv < du:
            nd = dv + w
            if nd < dist[u]:
                dist[u] = nd
                lowered.append(u)
    bucket_lowered(adj, dist, lowered, width, slots)
    return dist


class TightBottlenecks:
    """The bottleneck table of ``distances_and_bottlenecks(n, adj, source)``,
    read one entry at a time from its distance table ``dist``.

    ``self[y]`` is 0.0 at the source and elsewhere the least max(self[u],
    w) over y's tight predecessors, the entries (u, w) of row y with
    dist[u] < dist[y] and dist[u] + w == dist[y]. It walks back over them
    on an explicit stack and keeps each value it works out, so an entry is
    worked out once per instance and only where it is read.

    That is the heap kernel's table wherever no weight vanishes in the
    rounding of a distance, that is dist[u] + w > dist[u] for every
    distance and weight: then every u that ties y is strictly closer,
    settles before y and offers max(btl[u], w), and nothing else sets
    btl[y]. Where a weight can vanish, a vertex at y's own distance can
    tie it and the table need not be this one; callers rule that out
    (``verify.verify_stretch`` compares G's lightest edge with the
    distances it meets). A vertex ``dist`` leaves at INF has no tight
    predecessor and reads INF, where the heap kernel's table holds 0.0;
    a ``WeightedGraph`` is connected, so its scans reach every vertex.
    """

    __slots__ = ("adj", "dist", "known")

    def __init__(self, adj, dist: Sequence[float], source: int):
        self.adj = adj
        self.dist = dist
        self.known = {source: 0.0}

    def __getitem__(self, y: int) -> float:
        known = self.known
        b = known.get(y)
        if b is not None:
            return b
        adj, dist = self.adj, self.dist
        stack = [y]
        while stack:
            v = stack[-1]
            if v in known:
                stack.pop()
                continue
            dv = dist[v]
            best = INF
            waiting = False
            for u, w in adj[v]:
                du = dist[u]
                if du < dv and du + w == dv:
                    b = known.get(u)
                    if b is None:
                        stack.append(u)
                        waiting = True
                    elif not waiting:
                        if b < w:
                            b = w
                        if b < best:
                            best = b
            if not waiting:
                known[v] = best
                stack.pop()
        return known[y]


def ring_pays(n: int, delta: float, max_weight: float, dist: Sequence[float]) -> bool:
    """Whether the ring kernel, with slots of width ``delta`` on a graph
    whose heaviest edge weighs ``max_weight``, beat the heap for full scans
    from any source of a graph whose scan from one source gave ``dist``.

    Each of those scans meets distances up to 2 * max(dist) (through that
    source, by the triangle inequality), so its cursor walks at most that
    over delta slots, plus one: it stops at the slot of the last vertex
    it settles. It also makes the int(max_weight / delta) + 2 slots of its
    ring. The ring pays when those two counts together are at most n, at
    least one vertex per slot made or walked on average: a slot costs
    about what one heap push and pop cost. So one heavy edge, even one no
    shortest path uses, says no, as does an unreached vertex (INF). The
    rule also keeps every distance below n * delta, so for n under about
    2**40 no float rounding of a distance or a slot index can reach a
    slot's width (see ``ring_distances_and_bottlenecks``).
    """
    return 2.0 * max(dist) / delta + int(max_weight / delta) + 2 <= n


def ring_distances_and_bottlenecks(n, adj, source, delta, max_weight):
    """``distances_and_bottlenecks(n, adj, source)`` on Dial's ring of
    distance slots instead of a heap, where ``ring_pays``.

    Slot k holds the vertices whose distance d has int(d * (1 / delta))
    == k, and a vertex is appended to its slot on each strict improvement,
    so pushing costs one list append. A cursor empties the slots in order
    and settles each vertex it meets unsettled; a stale entry, one whose
    vertex has settled, is skipped. Every weight lies in [2 * delta,
    max_weight], so a relaxation moves a vertex at least one slot ahead,
    even after the float rounding that ``ring_pays`` keeps far below a
    slot, and at most int(max_weight / delta) + 1 slots ahead, or one more
    with rounding. So int(max_weight / delta) + 2 slots, reused cyclically,
    hold every pending entry: the farthest lands on the slot the cursor
    has just emptied, one lap later, which is its own slot. The walk ends
    once all n vertices have settled, or, on a graph the source does not
    span, after a full lap of empty slots.

    Every vertex u with dist[u] + w <= dist[v] lies in an earlier slot
    than v, so it has settled and relaxed v before v's slot comes up, and
    no vertex of v's slot can lower dist[v]. Each vertex thus settles once,
    at its final distance, as in the heap, and by induction in distance
    order the dist tables agree bit for bit. The bottleneck rule is the
    heap kernel's: every u that ties v settles and offers max(btl[u], w)
    before v settles, so ``btl[v]`` is final when v's slot comes up.
    """
    dist = [INF] * n
    btl = [0.0] * n
    done = bytearray(n)
    dist[source] = 0.0
    inv = 1.0 / delta
    slots = int(max_weight * inv) + 2
    ring = [[] for _ in range(slots)]
    ring[0].append(source)
    at = idle = 0
    left = n
    while idle < slots:
        bucket = ring[at]
        if bucket:
            ring[at] = []
            idle = 0
            for u in bucket:
                if done[u]:
                    continue
                done[u] = 1
                left -= 1
                d = dist[u]
                b = btl[u]
                for v, w in adj[u]:
                    nd = d + w
                    dv = dist[v]
                    if nd <= dv:
                        if nd < dv:
                            dist[v] = nd
                            btl[v] = b if b >= w else w
                            ring[int(nd * inv) % slots].append(v)
                        elif not done[v]:
                            nb = b if b >= w else w
                            if nb < btl[v]:
                                btl[v] = nb
            if not left:
                break
        else:
            idle += 1
        at += 1
        if at == slots:
            at = 0
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
