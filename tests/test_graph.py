import io
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from lightspanner import graph
from lightspanner.errors import DisconnectedGraphError
from lightspanner.generate import FAMILIES, generate_graph
from lightspanner.graphio import read_dimacs, read_edge_list, read_graph, write_dimacs, write_edge_list, write_graph
from lightspanner.graph import (
    INF,
    BallScanner,
    DistanceBalls,
    TightBottlenecks,
    WeightedGraph,
    adjacency_from_edges,
    bucket_lowered,
    bucket_table,
    distances,
    distances_and_bottlenecks,
    repaired_distances,
    ring_distances_and_bottlenecks,
    ring_pays,
    scan,
    tag_forest_path,
)
from lightspanner.trees import mst

from .conftest import coarse_weights, connected_graphs, crowded_slot_graph, erdos_renyi_with_a_heavy_edge
from . import oracles
from .oracles import dijkstra, multi_source_dijkstra, shortest_path

# ties between paths, which the tie-break tests need, are rare with 128
# distinct weights and common with four
tie_heavy_graphs = st.one_of(connected_graphs(), connected_graphs(weights=coarse_weights))


def test_constructor_rejects_self_loop():
    with pytest.raises(ValueError, match="self loop"):
        WeightedGraph(3, [(0, 1, 1.0), (2, 2, 1.0)])


def test_constructor_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])


def test_constructor_rejects_bad_weight():
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError, match="finite"):
        WeightedGraph(2, [(0, 1, float("nan"))])
    with pytest.raises(ValueError, match="finite"):
        WeightedGraph(2, [(0, 1, float("inf"))])


def test_constructor_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match="outside"):
        WeightedGraph(2, [(0, 2, 1.0)])


def test_constructor_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_single_vertex_graph():
    g = WeightedGraph(1, [])
    assert g.n == 1 and g.m == 0
    assert dijkstra(g, 0).dist == (0.0,)


def test_edges_canonicalized_and_sorted():
    g = WeightedGraph(3, [(2, 1, 0.5), (1, 0, 0.25)])
    assert g.edges == ((0, 1, 0.25), (1, 2, 0.5))
    assert g.weight_of(2, 1) == 0.5
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_scaled_multiplies_every_weight():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    h = g.scaled(2.5)
    assert h.edges == ((0, 1, 2.5), (1, 2, 5.0))


@given(connected_graphs(), st.integers(0, 10_000))
def test_dijkstra_matches_bellman_ford(g, pick):
    source = pick % g.n
    assert list(dijkstra(g, source).dist) == oracles.bellman_ford(g, source)


@given(connected_graphs(max_n=8, max_extra=6), st.integers(0, 10_000))
def test_bottleneck_matches_path_enumeration(g, pick):
    s = pick % g.n
    t = (pick // g.n) % g.n
    if s == t:
        return
    table = dijkstra(g, s)
    d, heavy = oracles.min_bottleneck_of_shortest(g, s, t)
    assert table.dist[t] == d
    assert table.bottleneck[t] == heavy


@given(connected_graphs())
def test_path_to_is_consistent(g):
    table = dijkstra(g, 0)
    for v in range(g.n):
        p = table.path_to(v)
        assert p.vertices[0] == 0 and p.vertices[-1] == v
        assert len(set(p.vertices)) == len(p.vertices)
        total = 0.0
        heaviest = 0.0
        for a, b in zip(p.vertices, p.vertices[1:]):
            w = g.weight_of(a, b)
            total += w
            heaviest = max(heaviest, w)
        assert total == p.length == table.dist[v]
        assert heaviest == p.bottleneck


def test_parent_tiebreak_prefers_smaller_predecessor():
    # two equal-length routes 0-1-3 and 0-2-3; the tree must route 3 via 1
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    table = dijkstra(g, 0)
    assert table.parent[3] == 1
    assert shortest_path(g, 0, 3).vertices == (0, 1, 3)


def test_deterministic_across_runs():
    g = WeightedGraph(5, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 1.0), (2, 3, 0.25), (3, 4, 1.0), (2, 4, 1.25)])
    a = dijkstra(g, 0)
    b = dijkstra(g, 0)
    assert a == b


@given(tie_heavy_graphs, st.data())
def test_multi_source_origin_is_nearest_source(g, data):
    k = data.draw(st.integers(1, g.n))
    sources = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k)))
    table = multi_source_dijkstra(g, sources)
    rows = {s: oracles.bellman_ford(g, s) for s in sources}
    for v in range(g.n):
        best = min(rows[s][v] for s in sources)
        assert table.dist[v] == best
        # the claimed origin must realize the minimum; ties pick the smallest id
        tied = [s for s in sources if rows[s][v] == best]
        assert table.origin[v] == min(tied)


def test_multi_source_rejects_empty():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        multi_source_dijkstra(g, [])


def test_shortest_path_same_vertex():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    p = shortest_path(g, 1, 1)
    assert p.vertices == (1,) and p.length == 0.0 and p.bottleneck == 0.0


def test_scan_radius_settles_exactly_the_ball():
    g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    scanner = BallScanner(g.n)
    # vertex 2 sits exactly on the radius, and is inside
    assert scanner.ball(g.adj, 0, 2.0) == [0, 1, 2]
    assert list(scanner.settled) == [1, 1, 1, 0, 0]
    assert scanner.dist == [0.0, 1.0, 2.0, INF, INF]
    assert scanner.parent == [-1, 0, 1, -1, -1]


def _draw_sources(g, data, max_size):
    size = data.draw(st.integers(1, min(max_size, g.n)))
    return sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=size, max_size=size)))


BALL_TABLES = ("dist", "parent", "bottleneck", "settled")


def _assert_is_ball(scanner, order, full, radius):
    """The scanner holds the ball of ``radius`` from the full scan ``full``
    of the same source, with full's entries inside and unreached ones outside,
    in each of the tables it keeps (a ``DistanceBalls`` keeps only dist)."""
    full_dist, full_parent, full_btl = full[:3]
    n = len(full_dist)
    ball = {v for v in range(n) if full_dist[v] <= radius and full_dist[v] < INF}
    assert sorted(order) == sorted(ball) and len(order) == len(ball)
    assert order is scanner.order
    assert all(scanner.dist[a] <= scanner.dist[b] for a, b in zip(order, order[1:]))
    kept = [k for k in BALL_TABLES if hasattr(scanner, k)]
    for v in range(n):
        inside = (full_dist[v], full_parent[v], full_btl[v], 1) if v in ball else (INF, -1, 0.0, 0)
        got = tuple(getattr(scanner, k)[v] for k in kept)
        assert got == tuple(x for k, x in zip(BALL_TABLES, inside) if k in kept)


def _radii(full_dist):
    """0, the distances the scan reached (a vertex on the radius is inside),
    and dyadic radii in between."""
    reached = sorted({d for d in full_dist if d < INF})
    return st.one_of(st.just(0.0), st.sampled_from(reached), st.integers(0, 4 * 64).map(lambda k: k / 64.0))


@given(tie_heavy_graphs, st.data())
def test_truncated_scan_is_the_ball_of_the_full_scan(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    full = scan(g.n, g.adj, (s,))
    radius = data.draw(_radii(full[0]))
    scanner = BallScanner(g.n)
    _assert_is_ball(scanner, scanner.ball(g.adj, s, radius), full, radius)


@given(tie_heavy_graphs, st.data())
def test_consecutive_balls_on_one_scanner_leave_no_stale_entry(g, data):
    # a second adjacency on the same vertices, which need not be connected
    adjs = [g.adj, adjacency_from_edges(g.n, g.edges[::2])]
    scanner = BallScanner(g.n)
    for _ in range(4):
        adj = data.draw(st.sampled_from(adjs))
        s = data.draw(st.integers(0, g.n - 1))
        full = scan(g.n, adj, (s,))
        radius = data.draw(_radii(full[0]))
        _assert_is_ball(scanner, scanner.ball(adj, s, radius), full, radius)


def _logged(table, log):
    """A copy of ``table`` (a list or a bytearray) that adds to ``log`` every
    index written to it."""

    class Logged(type(table)):
        def __setitem__(self, i, x):
            log.add(i)
            super().__setitem__(i, x)

    return Logged(table)


def test_ball_scan_touches_and_resets_only_its_ball():
    n = 100_000
    adj = adjacency_from_edges(n, [(v, v + 1, 1.0) for v in range(n - 1)])
    scanner = BallScanner(n)
    written = set()
    scanner.dist = _logged(scanner.dist, written)
    scanner.parent = _logged(scanner.parent, written)
    scanner.bottleneck = _logged(scanner.bottleneck, written)
    scanner.settled = _logged(scanner.settled, written)
    assert scanner.ball(adj, 50_000, 2.0) == [50_000, 49_999, 50_001, 49_998, 50_002]
    assert written == set(range(49_998, 50_003))
    written.clear()
    assert scanner.ball(adj, 10, 1.0) == [10, 9, 11]
    # the reset touches the last ball, the scan its own
    assert written == set(range(49_998, 50_003)) | {9, 10, 11}
    fresh = BallScanner(n)
    fresh.ball(adj, 10, 1.0)
    assert (scanner.dist, scanner.parent, scanner.bottleneck) == (fresh.dist, fresh.parent, fresh.bottleneck)
    assert scanner.settled == fresh.settled


@given(
    st.one_of(connected_graphs(max_n=8, max_extra=6), connected_graphs(max_n=8, max_extra=6, weights=coarse_weights)),
    st.integers(0, 10_000),
)
def test_single_source_scan_matches_oracles(g, pick):
    s = pick % g.n
    dist, _, bottleneck, origin, settled, order = scan(g.n, g.adj, (s,))
    assert dist == oracles.bellman_ford(g, s)
    assert origin == [s] * g.n
    assert sorted(order) == list(range(g.n)) and all(settled)
    for t in range(g.n):
        if t != s:
            assert (dist[t], bottleneck[t]) == oracles.min_bottleneck_of_shortest(g, s, t)


@given(tie_heavy_graphs, st.data())
def test_scan_parent_is_smallest_tie_optimal_predecessor(g, data):
    # dyadic weights make every sum exact, so "tie-optimal" is an equality:
    # q can be v's parent iff its edge reproduces v's whole key
    sources = _draw_sources(g, data, 4)
    dist, parent, bottleneck, origin, _, _ = scan(g.n, g.adj, sources)
    for v in range(g.n):
        if v in sources:
            assert parent[v] == -1
            continue
        optimal = [
            q
            for q, w in g.adj[v]
            if dist[q] + w == dist[v] and origin[q] == origin[v] and max(bottleneck[q], w) == bottleneck[v]
        ]
        assert parent[v] == min(optimal)


def _grid(rows, cols, weight):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, weight(v, v + 1)))
            if r + 1 < rows:
                edges.append((v, v + cols, weight(v, v + cols)))
    return WeightedGraph(rows * cols, edges)


KERNEL_GRAPHS = {
    "path": lambda: generate_graph("path", 40, seed=1),
    "star": lambda: generate_graph("star", 40, seed=1),
    # unit weights tie every lattice path; weights 1 and 2 also tie paths
    # whose heaviest edges differ, so the bottleneck tie rule decides
    "unit-grid": lambda: _grid(8, 9, lambda u, v: 1.0),
    "grid-1-2": lambda: _grid(9, 9, lambda u, v: float(random.Random(u * 100 + v).randint(1, 2))),
    "gnp": lambda: generate_graph("erdos_renyi", 120, seed=2),
    "geometric": lambda: generate_graph("geometric_unit_square", 150, seed=3),
}


def _scan_dist_btl(n, adj, sources):
    dist, _, bottleneck, _, _, _ = scan(n, adj, sources)
    return dist, bottleneck


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_distance_kernels_match_scan_on_families(name):
    g = KERNEL_GRAPHS[name]()
    for s in range(g.n):
        dist, bottleneck = _scan_dist_btl(g.n, g.adj, (s,))
        assert distances(g.n, g.adj, (s,)) == dist
        assert distances_and_bottlenecks(g.n, g.adj, s) == (dist, bottleneck)
    for step in (2, 7, 31):
        sources = range(step // 2, g.n, step)
        assert distances(g.n, g.adj, sources) == _scan_dist_btl(g.n, g.adj, sources)[0]


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_ball_scanner_matches_scan_on_families(name):
    g = KERNEL_GRAPHS[name]()
    scanner = BallScanner(g.n)
    for s in range(0, g.n, 3):
        full = scan(g.n, g.adj, (s,))
        reached = sorted(full[0])
        mid = len(reached) // 2
        # 0, a radius on the distance of a vertex, and one between two distances
        for radius in (0.0, reached[mid // 2], (reached[mid] + reached[mid + 1]) / 2):
            _assert_is_ball(scanner, scanner.ball(g.adj, s, radius), full, radius)


@given(tie_heavy_graphs, st.data())
def test_distance_balls_match_the_ball_scanner_and_distances(g, data):
    # a second adjacency on the same vertices, which need not be connected
    adjs = [g.adj, adjacency_from_edges(g.n, g.edges[::2])]
    balls, scanner = DistanceBalls(g.n), BallScanner(g.n)
    for _ in range(4):
        adj = data.draw(st.sampled_from(adjs))
        s = data.draw(st.integers(0, g.n - 1))
        full = scan(g.n, adj, (s,))
        radius = data.draw(st.one_of(_radii(full[0]), st.just(INF)))
        order = balls.ball(adj, s, radius)
        _assert_is_ball(balls, order, full, radius)
        assert sorted(order) == sorted(scanner.ball(adj, s, radius))
        assert all(balls.dist[v] == scanner.dist[v] for v in range(g.n))
        if radius == INF:
            assert balls.dist == distances(g.n, adj, (s,))


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_distance_balls_match_scan_on_families(name):
    g = KERNEL_GRAPHS[name]()
    balls = DistanceBalls(g.n)
    for s in range(0, g.n, 3):
        full = scan(g.n, g.adj, (s,))
        reached = sorted(full[0])
        # 0, a radius on the distance of a vertex, one between two distances, and no bound
        for radius in (0.0, reached[len(reached) // 4], (reached[1] + reached[2]) / 2, INF):
            _assert_is_ball(balls, balls.ball(g.adj, s, radius), full, radius)
        assert balls.dist == distances(g.n, g.adj, (s,))


def test_distance_balls_touch_and_reset_only_their_entries():
    n = 100_000
    adj = adjacency_from_edges(n, [(v, v + 1, 1.0) for v in range(n - 1)])
    balls = DistanceBalls(n)
    written = set()
    balls.dist = _logged(balls.dist, written)
    assert balls.ball(adj, 50_000, 2.0) == [50_000, 49_999, 50_001, 49_998, 50_002]
    assert written == set(range(49_998, 50_003))
    written.clear()
    # stopped at its target, the ball leaves 8 on the heap at a tentative distance
    assert balls.ball(adj, 10, 5.0, targets=[11]) == [10, 9, 11]
    assert written == set(range(49_998, 50_003)) | {8, 9, 10, 11}
    assert balls.heap == [(2.0, 8)] and balls.dist[8] == 2.0
    written.clear()
    assert balls.ball(adj, 70_000, 0.5) == [70_000]
    # the reset reaches the stopped ball's heap as well as its settled vertices
    assert written == {8, 9, 10, 11, 70_000}
    fresh = DistanceBalls(n)
    fresh.ball(adj, 70_000, 0.5)
    assert balls.dist == fresh.dist


@given(tie_heavy_graphs, st.data())
def test_a_ball_stops_right_after_its_last_target_settles(g, data):
    adjs = [g.adj, adjacency_from_edges(g.n, g.edges[::2])]
    balls = DistanceBalls(g.n)
    for _ in range(3):
        adj = data.draw(st.sampled_from(adjs))
        s = data.draw(st.integers(0, g.n - 1))
        full = scan(g.n, adj, (s,))
        radius = data.draw(st.one_of(_radii(full[0]), st.just(INF)))
        targets = _draw_sources(g, data, 4)
        whole = list(DistanceBalls(g.n).ball(adj, s, radius))
        order = balls.ball(adj, s, radius, targets)
        # the stopped ball is the whole ball's prefix up to its last target
        inside = [t for t in targets if full[0][t] <= radius and full[0][t] < INF]
        stop = max(whole.index(t) for t in inside) + 1 if len(inside) == len(targets) else len(whole)
        assert order == whole[:stop]
        for t in inside:
            assert balls.dist[t] == full[0][t]
        # the next ball on the same instance is a fresh instance's ball
        s = data.draw(st.integers(0, g.n - 1))
        radius = data.draw(st.one_of(_radii(full[0]), st.just(INF)))
        fresh = DistanceBalls(g.n)
        assert balls.ball(adj, s, radius) == fresh.ball(adj, s, radius)
        assert balls.dist == fresh.dist


@given(tie_heavy_graphs, st.data())
def test_distance_kernels_match_scan(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    dist, bottleneck = _scan_dist_btl(g.n, g.adj, (s,))
    assert distances(g.n, g.adj, (s,)) == dist
    assert distances_and_bottlenecks(g.n, g.adj, s) == (dist, bottleneck)
    sources = _draw_sources(g, data, 4)
    assert distances(g.n, g.adj, sources) == _scan_dist_btl(g.n, g.adj, sources)[0]


def test_distance_kernels_leave_unreached_vertices_at_inf():
    # two components, {0, 1, 2} and {3, 4}, and vertex 5 on its own
    adj = adjacency_from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0)])
    for s in range(6):
        dist, bottleneck = _scan_dist_btl(6, adj, (s,))
        assert distances(6, adj, (s,)) == dist
        assert distances_and_bottlenecks(6, adj, s) == (dist, bottleneck)
    assert distances(6, adj, (0,)) == [0.0, 1.0, 3.0, INF, INF, INF]
    assert distances_and_bottlenecks(6, adj, 4) == ([INF, INF, INF, 3.0, 0.0, INF], [0.0, 0.0, 0.0, 3.0, 0.0, 0.0])
    assert distances(6, adj, (2, 3)) == [3.0, 2.0, 0.0, 0.0, 3.0, INF]


@st.composite
def ring_graphs(draw):
    """Connected graphs that pass ``ring_pays`` by construction: every
    vertex lies at most 3 edges from vertex 0, weights lie within a ratio
    of 2, and n >= 30, so 2 * ecc(0) / delta <= 12 * max_w / min_w <= 24,
    the ring's int(max_w / delta) + 2 slots are at most 6, and the two
    together are at most n (delta = min_w / 2).

    Integer weights 2..4 tie paths exactly, so the bottleneck tie branch
    runs, and repeat the lightest weight; dyadic weights in [1, 2) give
    distinct sums."""
    weights = draw(
        st.sampled_from(
            [st.integers(2, 4).map(float), st.integers(64, 127).map(lambda k: k / 64.0)]
        )
    )
    n = draw(st.integers(30, 48))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, min(v, 3) - 1)), v)] = draw(weights)
    for _ in range(draw(st.integers(0, 3 * n))):
        a, b = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = draw(weights)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def _ring_width(g):
    weights = [w for _, _, w in g.iter_edges()]
    return 0.5 * min(weights), max(weights)


@settings(max_examples=60)
@given(ring_graphs(), st.data())
def test_ring_kernels_return_the_heap_kernels_tables(g, data):
    delta, heaviest = _ring_width(g)
    assert ring_pays(g.n, delta, heaviest, distances(g.n, g.adj, (0,)))
    s = data.draw(st.integers(0, g.n - 1))
    assert ring_distances_and_bottlenecks(g.n, g.adj, s, delta, heaviest) == distances_and_bottlenecks(g.n, g.adj, s)


@pytest.mark.parametrize("name", ["unit-grid", "grid-1-2", "gnp"])
def test_ring_kernels_match_scan_on_families(name):
    g = KERNEL_GRAPHS[name]()
    delta, heaviest = _ring_width(g)
    for s in range(g.n):
        dist, bottleneck = _scan_dist_btl(g.n, g.adj, (s,))
        assert ring_distances_and_bottlenecks(g.n, g.adj, s, delta, heaviest) == (dist, bottleneck)


def test_ring_kernels_leave_unreached_vertices_at_inf():
    adj = adjacency_from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0)])
    for s in range(6):
        assert ring_distances_and_bottlenecks(6, adj, s, 0.5, 3.0) == distances_and_bottlenecks(6, adj, s)
    assert not ring_pays(6, 0.5, 3.0, distances(6, adj, (0,)))


@pytest.mark.parametrize(
    "family, n, ring",
    [
        ("erdos_renyi", 60, True),
        ("erdos_renyi", 200, True),
        ("grid", 100, True),
        ("grid", 400, True),
        ("star", 20, True),
        ("star", 100, True),
        ("geometric_unit_square", 200, False),
        ("geometric_unit_square", 512, False),
        ("path", 50, False),
        ("path", 200, False),
    ],
)
def test_the_ring_rule_picks_the_ring_where_it_pays(family, n, ring):
    for seed in (1, 2, 3):
        g = generate_graph(family, n, seed=seed)
        assert ring_pays(n, *_ring_width(g), distances(n, g.adj, (0,))) is ring


def test_one_heavy_edge_keeps_the_heap():
    # the eccentricity alone would pass; the ring of about 2e6 slots does not
    g = erdos_renyi_with_a_heavy_edge(400, 1, 1e6)
    delta, heaviest = _ring_width(g)
    dist = distances(g.n, g.adj, (0,))
    assert 2.0 * max(dist) / delta <= g.n
    assert not ring_pays(g.n, delta, heaviest, dist)


def test_ring_kernels_match_the_heap_across_a_heavy_edge():
    # 2 002 slots for 3 vertices: the heavy edge's stale entry lies far
    # ahead when the scan has settled every vertex
    adj = adjacency_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1000.0)])
    for s in range(3):
        assert ring_distances_and_bottlenecks(3, adj, s, 0.5, 1000.0) == distances_and_bottlenecks(3, adj, s)


def _random_subgraph(g, rng):
    """Rows of a random edge subset of g, connected or not, and the (u, v, w)
    edges of g it lacks."""
    share = rng.choice([0.0, 0.5, 0.9, 1.0])
    pairs = {(u, v) for u, v, _ in g.edges if rng.random() < share}
    return graph.subgraph_adjacency(g.adj, pairs), [e for e in g.edges if (e[0], e[1]) not in pairs]


def _ceiling_table(g, scale=1.0):
    """(width, slots, ceiling) for ``bucket_lowered`` scans of g and its
    subgraphs: slots ``scale`` times Dial's width, half g's lightest edge,
    up to a ceiling above every path's weight (dyadic weights sum exactly)."""
    ceiling = 2.0 * g.total_weight() + 1.0
    width = scale * 0.5 * min(w for _, _, w in g.iter_edges())
    return width, int(ceiling * (1.0 / width)) + 1, ceiling


def _below(dist, ceiling):
    """A ``distances`` table with the ceiling in place of INF."""
    return [min(d, ceiling) for d in dist]


@given(tie_heavy_graphs, st.randoms())
def test_repaired_distances_equal_a_fresh_scan(g, rng):
    h_adj, extra = _random_subgraph(g, rng)
    width, slots, ceiling = _ceiling_table(g)
    for s in range(g.n):
        dist_h = _below(distances(g.n, h_adj, (s,)), ceiling)
        assert repaired_distances(g.adj, extra, dist_h, width, slots) == distances(g.n, g.adj, (s,))


@given(tie_heavy_graphs, st.randoms())
def test_tight_bottlenecks_equal_the_heap_kernels_table(g, rng):
    h_adj, extra = _random_subgraph(g, rng)
    width, slots, ceiling = _ceiling_table(g)
    for s in range(g.n):
        dist, btl = distances_and_bottlenecks(g.n, g.adj, s)
        dist_h = _below(distances(g.n, h_adj, (s,)), ceiling)
        walk = TightBottlenecks(g.adj, repaired_distances(g.adj, extra, dist_h, width, slots), s)
        # read in a random order: a value worked out on one walk serves the next
        ys = list(range(g.n))
        rng.shuffle(ys)
        assert {y: walk[y] for y in ys} == dict(enumerate(btl))


# source 0 reaches 1 at 0.75 and 2 at 0.25, both in one slot of width 2;
# 1 runs first and is lowered to 0.5 by 2 after it
RESETTLING_TRIANGLE = WeightedGraph(3, [(0, 1, 0.75), (0, 2, 0.25), (1, 2, 0.25)])


@example(RESETTLING_TRIANGLE, 16.0, random.Random(0))
@given(tie_heavy_graphs, st.sampled_from([1.0, 1.5, 4.0, 16.0, 1024.0]), st.randoms())
def test_bucket_kernel_returns_the_heap_table(g, scale, rng):
    # from Dial's width up to above the heaviest edge: dyadic weights lie
    # within a ratio of 128, coarse ones of 4
    h_adj, extra = _random_subgraph(g, rng)
    width, slots, ceiling = _ceiling_table(g, scale)
    for s in range(g.n):
        dist = [ceiling] * g.n
        dist[s] = 0.0
        bucket_lowered(g.adj, dist, (s,), width, slots)
        assert dist == distances(g.n, g.adj, (s,))
        # on a subgraph that may miss vertices, the unreached keep the ceiling
        dist_h = [ceiling] * g.n
        dist_h[s] = 0.0
        bucket_lowered(h_adj, dist_h, (s,), width, slots)
        assert dist_h == _below(distances(g.n, h_adj, (s,)), ceiling)
        assert repaired_distances(g.adj, extra, dist_h, width, slots) == dist


def test_bucket_kernel_resettles_a_vertex_lowered_after_it_ran():
    g = RESETTLING_TRIANGLE
    dist = [10.0, 10.0, 10.0]
    dist[0] = 0.0
    assert bucket_lowered(g.adj, dist, (0,), 2.0, 6) == 1
    assert dist == distances(3, g.adj, (0,)) == [0.0, 0.5, 0.25]


def test_bucket_kernel_reaches_the_last_slot_of_its_table():
    # from one end of a long path, the far end's label lies just below the
    # ceiling and so in the last slot
    n = 3000
    adj = adjacency_from_edges(n, [(v, v + 1, 1.0 + (v % 3) / 4.0) for v in range(n - 1)])
    heap = distances(n, adj, (0,))
    ceiling = math.nextafter(heap[-1], INF)
    width = 0.5
    slots = int(ceiling * (1.0 / width)) + 1
    assert int(heap[-1] * (1.0 / width)) == slots - 1
    dist = [ceiling] * n
    dist[0] = 0.0
    assert bucket_lowered(adj, dist, (0,), width, slots) == 0
    assert dist == heap


@pytest.mark.parametrize("family, n", [("geometric_unit_square", 512), ("erdos_renyi", 300), ("path", 300), ("grid", 400)])
def test_the_bucket_rule_keeps_the_walk_short(family, n):
    g = generate_graph(family, n, seed=1)
    delta = 0.5 * min(w for _, _, w in g.iter_edges())
    dist = distances(n, g.adj, (0,))
    width, slots, ceiling = bucket_table(n, delta, dist)
    assert width == max(delta, graph.BUCKET_SPREAD * max(dist) / n)
    assert ceiling > 2.0 * max(dist) and slots <= n // 8 + 1
    # Dial's width where weights lie within a ratio of 2
    assert (width == delta) is (family == "erdos_renyi")
    for s in range(0, n, 37):
        fresh = [ceiling] * n
        fresh[s] = 0.0
        bucket_lowered(g.adj, fresh, (s,), width, slots)
        assert fresh == distances(n, g.adj, (s,))
    assert bucket_table(6, 0.5, [0.0, 1.0, INF, 2.0, 2.0, 3.0]) is None


def test_a_crowded_slot_hands_its_scan_to_the_heap(monkeypatch):
    g = crowded_slot_graph()
    delta = 0.5 * min(w for _, _, w in g.iter_edges())
    heap = distances(g.n, g.adj, (0,))
    width, slots, ceiling = bucket_table(g.n, delta, heap)
    handed = []
    lowered = graph._lowered

    def counted(adj, dist, entries):
        handed.append(len(entries))
        return lowered(adj, dist, entries)

    monkeypatch.setattr(graph, "_lowered", counted)
    dist = [ceiling] * g.n
    dist[0] = 0.0
    # the slot of the hub re-settles it and its leaves once per feeder chain
    # that lowers it, until more than n re-settles hand the rest to the heap
    assert bucket_lowered(g.adj, dist, (0,), width, slots) == g.n + 1
    assert len(handed) == 1 and handed[0] > 0
    assert dist == heap


def test_tight_bottlenecks_walk_a_long_path_without_recursion():
    n = 5000
    adj = adjacency_from_edges(n, [(v, v + 1, 1.0 + (v % 3)) for v in range(n - 1)])
    walk = TightBottlenecks(adj, distances(n, adj, (0,)), 0)
    assert walk[n - 1] == 3.0 and walk[1] == 1.0 and walk[0] == 0.0


@given(tie_heavy_graphs, st.randoms())
def test_subgraph_rows_keep_the_host_entries_of_the_pairs(g, rng):
    share = rng.choice([0.0, 0.3, 1.0])
    pairs = {(u, v) for u, v, _ in g.edges if rng.random() < share}
    rows = graph.subgraph_adjacency(g.adj, pairs)
    assert rows == oracles.subgraph_rows_reference(g, pairs)
    assert all(any(e is f for f in g.adj[u]) for u, row in enumerate(rows) for e in row)


def test_adjacency_from_edges_allows_disconnected():
    adj = adjacency_from_edges(3, [(0, 1, 1.0)])
    dist, parent, _, origin, _, _ = scan(3, adj, (0,))
    assert dist[1] == 1.0 and dist[2] == INF
    assert origin[:2] == [0, 0] and origin[2] == parent[2] == -1


@given(connected_graphs())
def test_total_weight_is_edge_sum(g):
    assert g.total_weight() == math.fsum(w for _, _, w in g.edges)


def test_left_sum_rounds_after_every_addition_on_every_interpreter():
    # CPython 3.12's sum() compensates and returns 1.0 and 2.0 here
    assert graph.left_sum([0.1] * 10) == 0.9999999999999999
    assert graph.left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert graph.left_sum([]) == 0 and graph.left_sum([2.5]) == 2.5


@given(connected_graphs(min_n=1), st.sampled_from(["constructor", "edge_list", "dimacs", "scaled"]), st.randoms())
def test_weight_lookups_match_a_dict_of_the_input_edges(base, source, rng):
    # the input lists each edge once, in random order and orientation
    given_edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in base.edges]
    rng.shuffle(given_edges)
    n = base.n
    if source == "constructor":
        g = WeightedGraph(n, given_edges)
    elif source == "edge_list":
        g = read_edge_list(io.StringIO("".join([f"{n}\n", *(f"{u} {v} {w!r}\n" for u, v, w in given_edges)])))
    elif source == "dimacs":
        if n == 1:  # a dimacs file names its vertices through its arcs
            return
        arcs = (f"a {u + 1} {v + 1} {w!r}\n" for u, v, w in given_edges)
        g = read_dimacs(io.StringIO("".join([f"p sp {n} {len(given_edges)}\n", *arcs])))
    else:
        g = WeightedGraph(n, given_edges).scaled(0.3)
        given_edges = [(u, v, w * 0.3) for u, v, w in given_edges]
    weights = oracles.pair_weights_reference(given_edges)
    for u in range(-2, n + 2):
        for v in [*range(-2, n + 2), 10**20]:
            assert g.has_edge(u, v) is ((u, v) in weights)
            if (u, v) in weights:
                assert g.weight_of(u, v) == weights[u, v]
            else:
                with pytest.raises(ValueError, match=rf"no edge \({u}, {v}\)"):
                    g.weight_of(u, v)


# ---------------------------------------------------------------- before and after the rows


def _answer(query, *args):
    """A query's value, or the type and text of the ValueError it raises."""
    try:
        return "value", query(*args)
    except ValueError as err:
        return ValueError, str(err)


def _written(write, g):
    buf = io.StringIO()
    write(g, buf)
    return buf.getvalue()


@settings(max_examples=60)
@given(st.sampled_from(FAMILIES), st.integers(2, 40), st.integers(0, 1000), st.randoms())
def test_queries_agree_before_and_after_the_rows_exist(family, n, seed, rng):
    plain = generate_graph(family, n, seed=seed)
    scanned = generate_graph(family, n, seed=seed)
    assert scanned.adj and scanned.edges == plain.edges
    # the first read of the rows released the tuple; ``plain`` never read them
    assert plain._adj is None and plain._edges is not None and scanned._edges is None
    for u in range(-2, n + 2):
        for v in [*range(-2, n + 2), 10**20]:
            assert plain.has_edge(u, v) is scanned.has_edge(u, v)
            assert _answer(plain.weight_of, u, v) == _answer(scanned.weight_of, u, v)
    tags = {(u, v): rng.choice("ab") for u, v, _ in plain.edges if rng.random() < 0.5}
    for stray in [None, (1, 0), (0, n), (-1, 0)]:
        keyed = dict(tags)
        if stray is not None:
            keyed[stray] = "c"
        assert _answer(lambda g: list(g.edges_in(keyed)), plain) == _answer(lambda g: list(g.edges_in(keyed)), scanned)
    assert mst(plain) == mst(scanned)
    assert plain.total_weight() == scanned.total_weight() and plain.m == scanned.m
    assert list(scanned.iter_edges()) == list(plain.edges)
    assert plain == scanned and scanned == plain and hash(plain) == hash(scanned)
    assert scanned == generate_graph(family, n, seed=seed) and scanned == scanned
    assert (plain != plain.scaled(2.0)) and (scanned != scanned.scaled(2.0))
    for write in (write_edge_list, write_dimacs):
        assert _written(write, plain) == _written(write, scanned)
    # a scaled copy is edges-only whether or not its host has rows
    copy = scanned.scaled(0.7)
    assert copy._adj is None and copy.edges == plain.scaled(0.7).edges
    assert copy == plain.scaled(0.7) and copy.adj == plain.scaled(0.7).adj


def test_an_edgeless_graph_answers_the_same_with_its_row():
    plain, scanned = WeightedGraph(1, []), WeightedGraph(1, [])
    assert scanned.adj == [[]] and scanned._edges is None
    assert scanned.edges == plain.edges == () and scanned.m == 0 and scanned.total_weight() == 0
    assert not scanned.has_edge(0, 0) and _answer(scanned.weight_of, 0, 1) == (ValueError, "no edge (0, 1)")
    assert scanned == plain and hash(scanned) == hash(plain)
    assert _written(write_edge_list, scanned) == _written(write_edge_list, plain) == "1\n"


def test_readers_see_one_structure_while_another_thread_builds_the_rows():
    expected = generate_graph("geometric_unit_square", 1500, seed=5)
    pairs = [(u, v) for u, v, _ in expected.edges[::7]] + [(v, u) for u, v, _ in expected.edges[3::11]]
    weights = [expected.weight_of(u, v) for u, v in pairs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            g = generate_graph("geometric_unit_square", 1500, seed=5)
            start = threading.Barrier(4)
            done = threading.Event()
            failures = []

            def read_rows():
                start.wait()
                rows = g.adj
                done.set()
                if rows != expected.adj:
                    failures.append("rows")

            def read_weights():
                start.wait()
                while True:
                    finished = done.is_set()
                    try:
                        if [g.weight_of(u, v) for u, v in pairs] != weights:
                            failures.append("weight_of")
                    except Exception as err:  # noqa: BLE001 - any error is a failure here
                        failures.append(repr(err))
                    if finished:
                        return

            def read_edges():
                start.wait()
                while True:
                    finished = done.is_set()
                    try:
                        if g.edges != expected.edges or g.total_weight() != expected.total_weight():
                            failures.append("edges")
                    except Exception as err:  # noqa: BLE001
                        failures.append(repr(err))
                    if finished:
                        return

            threads = [threading.Thread(target=f) for f in (read_rows, read_rows, read_weights, read_edges)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failures == [] and g._edges is None and g.adj == expected.adj
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------- scaled


def _same_graph_fields(a, b):
    assert (a.n, a.edges, a.adj, a.labels) == (b.n, b.edges, b.adj, b.labels)


@given(tie_heavy_graphs, st.sampled_from([1e-3, 0.3, 1.0, 7.0, 1e5]))
def test_scaled_matches_a_fresh_graph(g, factor):
    fresh = WeightedGraph(g.n, [(u, v, w * factor) for u, v, w in g.edges], g.labels)
    _same_graph_fields(g.scaled(factor), fresh)


def test_scaled_keeps_labels_and_shares_weight_objects():
    g = WeightedGraph(4, [(2, 3, 1.5), (0, 1, 2.0), (1, 2, 0.5), (0, 3, 4.0)], labels=[10, 20, 30, 40])
    h = g.scaled(3.0)
    _same_graph_fields(h, WeightedGraph(4, [(u, v, w * 3.0) for u, v, w in g.edges], [10, 20, 30, 40]))
    for u, v, w in h.edges:
        assert h.weight_of(u, v) is w and h.weight_of(v, u) is w
        assert any(x == v and wx is w for x, wx in h.adj[u])
        assert any(x == u and wx is w for x, wx in h.adj[v])


def test_scaled_rejects_weights_that_leave_the_positive_finite_range():
    g = WeightedGraph(3, [(0, 1, 1e-300), (1, 2, 1e300)])
    with pytest.raises(ValueError, match=r"edge \(1, 2\) needs a positive finite weight, got inf"):
        g.scaled(1e10)
    with pytest.raises(ValueError, match=r"edge \(0, 1\) needs a positive finite weight, got 0.0"):
        g.scaled(1e-100)
    with pytest.raises(ValueError, match="scale factor"):
        g.scaled(0.0)


class _CountingParent(dict):
    """A parent table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_tag_forest_path_reads_a_shared_suffix_once():
    # forest 0 <- 1 <- 2 <- 3 and 2 <- 4: the walks from 3 and 4 share 2 -> 1 -> 0
    parent = _CountingParent({0: -1, 1: 0, 2: 1, 3: 2, 4: 2})
    covered = {0}
    tags = {}
    tag_forest_path(parent, 3, covered, tags, "a")
    assert parent.reads == 3
    tag_forest_path(parent, 4, covered, tags, "b")
    assert parent.reads == 4  # only 4's own edge; the suffix from 2 is covered
    assert covered == {0, 1, 2, 3, 4}
    assert list(tags.items()) == [((2, 3), "a"), ((1, 2), "a"), ((0, 1), "a"), ((2, 4), "b")]


def test_tag_forest_path_keeps_the_first_tag():
    parent = [-1, 0, 1]
    tags = {(0, 1): "old"}
    tag_forest_path(parent, 2, {0}, tags, "new")
    assert list(tags.items()) == [((0, 1), "old"), ((1, 2), "new")]


def test_tag_forest_path_from_a_covered_vertex_adds_nothing():
    parent = _CountingParent({0: -1, 1: 0, 2: 1})
    covered = {0, 2}
    tags = {}
    tag_forest_path(parent, 2, covered, tags, "a")
    assert (covered, tags, parent.reads) == ({0, 2}, {}, 0)


def _sorted_rows(g):
    rows = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        rows[u].append((v, w))
        rows[v].append((u, w))
    return [sorted(row) for row in rows]


@pytest.mark.parametrize("family", ["path", "star", "grid", "erdos_renyi", "geometric_unit_square"])
def test_adjacency_from_sorted_edges_has_ascending_rows(family):
    g = generate_graph(family, 64, seed=1)
    assert adjacency_from_edges(g.n, g.edges) == g.adj == _sorted_rows(g)


@given(tie_heavy_graphs)
def test_adjacency_from_edges_keeps_the_order_given(g):
    assert adjacency_from_edges(g.n, g.edges) == g.adj == _sorted_rows(g)
    backwards = adjacency_from_edges(g.n, reversed(g.edges))
    assert backwards == [row[::-1] for row in g.adj]


def _assert_lowers_to_the_union(n, adj, a, b):
    """A scan from ``b`` handed the tables of a scan from ``a`` lowers them in
    place to the tables of a scan from both, and settles exactly the vertices
    whose (dist, origin, bottleneck) key falls."""
    tables = scan(n, adj, a)[:4]
    before = list(zip(tables[0], tables[3], tables[2]))
    got = scan(n, adj, b, tables)
    assert all(x is y for x, y in zip(got, tables))
    union = scan(n, adj, set(a) | set(b))
    assert got[:4] == union[:4]
    fell = [v for v in range(n) if (union[0][v], union[3][v], union[2][v]) < before[v]]
    assert sorted(got[5]) == fell
    assert [v for v in range(n) if got[4][v]] == fell


@given(tie_heavy_graphs, st.data())
def test_scan_lowers_given_tables_to_both_source_sets(g, data):
    # the source sets may share vertices, which keep their entries
    _assert_lowers_to_the_union(g.n, g.adj, _draw_sources(g, data, 3), _draw_sources(g, data, 3))


@pytest.mark.parametrize("a, b", [((0,), (3,)), ((2,), (0,)), ((5,), (1, 4)), ((), (3,)), ((3, 4), (1,))])
def test_scan_lowers_given_tables_on_a_disconnected_subgraph(a, b):
    adj = adjacency_from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0)])
    _assert_lowers_to_the_union(6, adj, a, b)


@pytest.mark.parametrize("a, b", [((0,), (4,)), ((4,), (0,)), ((), (0, 4))])
def test_a_vertex_tied_between_two_origins_keeps_the_smaller_origins_parent(a, b):
    # 3 lies at distance 2 from source 0 (through 2) and from source 4
    # (through 1), with equal bottlenecks: origin 0 wins, and with it parent
    # 2, in whichever order the sources come
    adj = adjacency_from_edges(5, [(0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 3, 1.0)])
    tables = scan(5, adj, a)[:4]
    scan(5, adj, b, tables)
    assert (tables[1][3], tables[3][3]) == (2, 0)


@st.composite
def edge_lists(draw):
    """(n, edges) with distinct vertex pairs in any order and orientation;
    vertices may be isolated and n may be 1."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return n, [(v, u, draw(coarse_weights)) if draw(st.booleans()) else (u, v, draw(coarse_weights)) for u, v in picked]


@given(edge_lists())
@example((1, []))
@example((5, [(3, 0, 1.0), (0, 2, 0.5)]))
def test_adjacency_from_edges_matches_the_plain_builder(case):
    n, edges = case
    assert adjacency_from_edges(n, edges) == oracles.adjacency_reference(n, edges)


# ---------------------------------------------------------------- rows on first read


def _rows_built_on_first_read(g):
    assert g._adj is None
    rows = g.adj
    assert rows == _sorted_rows(g)
    assert g._adj is rows and g.adj is rows


def test_generated_read_and_scaled_graphs_build_rows_on_first_read(tmp_path):
    g = generate_graph("erdos_renyi", 40, seed=2)
    _rows_built_on_first_read(g)
    path = tmp_path / "graph.edge_list"
    write_graph(g, str(path))
    _rows_built_on_first_read(read_graph(str(path)))
    write_graph(g, str(tmp_path / "graph.dimacs"), "dimacs")
    _rows_built_on_first_read(read_graph(str(tmp_path / "graph.dimacs"), "dimacs"))
    # g's rows are built by now; a scaled copy still waits for its first read
    _rows_built_on_first_read(g.scaled(3.0))


def test_a_bogus_vertex_count_raises_before_any_table_of_size_n(tmp_path, monkeypatch):
    def refuse(n, *args):
        raise AssertionError(f"a table of size {n} was allocated")

    monkeypatch.setattr(graph, "adjacency_from_edges", refuse)
    monkeypatch.setattr(graph, "spanning_forest", refuse)
    path = tmp_path / "graph.edge_list"
    path.write_text("99999999999999999999\n0 1 1\n")
    with pytest.raises(DisconnectedGraphError, match="fewer than n - 1"):
        read_graph(str(path))
