import math

import pytest
from hypothesis import given, settings, strategies as st

from lightspanner import trees
from lightspanner.generate import generate_graph
from lightspanner.graph import WeightedGraph
from lightspanner.trees import SpanningTree, mst, slt_forest
from lightspanner.verify import verify_slt

from .conftest import coarse_weights, connected_graphs, random_connected_graph
from . import oracles
from .oracles import dijkstra, multi_source_dijkstra


@given(connected_graphs(max_n=8, max_extra=8))
def test_mst_weight_matches_enumeration(g):
    tree = mst(g)
    assert tree.total_weight == oracles.min_spanning_weight(g)
    assert len(tree.edges) == g.n - 1


@given(connected_graphs())
def test_mst_edges_form_spanning_tree(g):
    tree = mst(g)
    sub = WeightedGraph(g.n, tree.edges)  # raises if disconnected
    assert sub.m == g.n - 1
    for u, v, w in tree.edges:
        assert g.weight_of(u, v) == w


def test_mst_deterministic_under_ties():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 1.0)])
    a = mst(g)
    b = mst(g)
    assert a == b
    # Kruskal over sorted canonical edges keeps the lexically first ties
    assert a.edges == ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))


@given(connected_graphs(), st.sampled_from([0.1, 0.5, 1.0, 2.0]), st.integers(0, 10_000))
def test_slt_satisfies_both_guarantees(g, eps, pick):
    root = pick % g.n
    report = verify_slt(g, slt_forest(g, (root,), eps), root, eps)
    assert report.passed, report.violations[:3]


@given(connected_graphs(), st.integers(0, 10_000))
def test_slt_distance_bound_directly(g, pick):
    root = pick % g.n
    eps = 0.25
    tree = slt_forest(g, (root,), eps)
    sub = WeightedGraph(g.n, tree.edges)
    in_tree = dijkstra(sub, root).dist
    in_g = dijkstra(g, root).dist
    for v in range(g.n):
        assert in_tree[v] <= (1 + eps) * in_g[v] * (1 + 1e-9)


def test_slt_on_path_is_the_path():
    g = generate_graph("path", 12, seed=5)
    tree = slt_forest(g, (0,), 0.1)
    assert tree.edges == g.edges


def test_slt_weight_never_below_mst():
    g = generate_graph("geometric_unit_square", 80, seed=2)
    base = mst(g).total_weight
    for eps in (0.05, 0.5, 4.0):
        assert slt_forest(g, (0,), eps).total_weight >= base - 1e-12


def test_slt_large_eps_approaches_mst():
    # with a huge slack budget the splice never fires, leaving the MST tour order
    g = generate_graph("erdos_renyi", 40, seed=9, p=0.3)
    tree = slt_forest(g, (0,), 1e9)
    assert tree.total_weight == pytest.approx(mst(g).total_weight)


def test_slt_small_eps_approaches_spt():
    g = generate_graph("erdos_renyi", 40, seed=9, p=0.3)
    tree = slt_forest(g, (0,), 1e-9)
    sub = WeightedGraph(g.n, tree.edges)
    spt = dijkstra(g, 0).dist
    got = dijkstra(sub, 0).dist
    for v in range(g.n):
        assert got[v] <= spt[v] * (1 + 1e-6)


def test_slt_validation():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="root"):
        slt_forest(g, (5,), 0.5)
    with pytest.raises(ValueError, match="eps"):
        slt_forest(g, (0,), 0.0)


def test_slt_deterministic():
    g = generate_graph("geometric_unit_square", 100, seed=13)
    assert slt_forest(g, (3,), 0.07) == slt_forest(g, (3,), 0.07)


@settings(max_examples=40)
@given(connected_graphs(), st.data())
def test_forest_reaches_every_vertex_within_budget(g, data):
    k = data.draw(st.integers(1, g.n))
    roots = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k)))
    eps = 0.5
    forest = slt_forest(g, roots, eps)
    base = multi_source_dijkstra(g, roots).dist
    adj = [[] for _ in range(g.n)]
    for u, v, w in forest.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    # walk each component from its root
    import heapq

    dist = {r: 0.0 for r in roots}
    heap = [(0.0, r) for r in roots]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    for v in range(g.n):
        assert dist[v] <= (1 + eps) * base[v] * (1 + 1e-9)


@given(connected_graphs(), st.data())
def test_forest_weight_within_mst_factor(g, data):
    k = data.draw(st.integers(1, g.n))
    roots = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k)))
    eps = 0.5
    forest = slt_forest(g, roots, eps)
    assert forest.total_weight <= (1 + 2 / eps) * mst(g).total_weight * (1 + 1e-9)
    assert len(forest.edges) == g.n - len(roots)


def test_forest_all_roots_is_empty():
    g = generate_graph("path", 6, seed=0)
    forest = slt_forest(g, range(6), 0.5)
    assert forest.edges == ()


def test_forest_validation():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="nonempty"):
        slt_forest(g, [], 0.5)
    with pytest.raises(ValueError, match="outside"):
        slt_forest(g, [9], 0.5)
    with pytest.raises(ValueError, match="eps"):
        slt_forest(g, [0], -1.0)


def test_spanning_tree_is_plain_value_object():
    t = SpanningTree(2, ((0, 1, 1.0),), 1.0)
    assert t.n == 2 and t.edges == ((0, 1, 1.0),) and t.total_weight == 1.0


# ------------------------------------------------------ the MST, once


@pytest.fixture()
def kruskal_sizes(monkeypatch):
    """The number of edges each Kruskal run sorts, in call order."""
    sizes = []
    kruskal = trees._kruskal

    def counting_kruskal(n, edges):
        edges = list(edges)
        sizes.append(len(edges))
        return kruskal(n, edges)

    monkeypatch.setattr(trees, "_kruskal", counting_kruskal)
    return sizes


def test_mst_is_computed_once_per_graph(kruskal_sizes):
    g = generate_graph("geometric_unit_square", 60, seed=2)
    first = mst(g)
    assert mst(g) is first
    slt_forest(g, [0, 7, 30], 0.5)
    slt_forest(g, [5], 0.2)
    # one sort of all m edges; each forest sorts n - 1 tree edges plus its roots
    assert kruskal_sizes == [g.m, g.n - 1 + 3, g.n - 1 + 1]


def test_build_sorts_all_edges_once_per_graph(kruskal_sizes):
    from lightspanner.spanner import build_spanner

    g = generate_graph("erdos_renyi", 80, seed=1, p=0.1)
    levels = build_spanner(g, 0.05, 2, 0).internals.sampling.levels
    # normalize sorts all m edges of g, and its scaled copy sorts its own m
    # edges on first use; each sampled level's forest sorts n - 1 tree edges
    # plus its roots
    assert kruskal_sizes == [g.m, g.m, g.n - 1 + len(levels[1]), g.n - 1 + len(levels[2])]


@settings(max_examples=60)
@given(
    st.one_of(connected_graphs(max_n=20, max_extra=30), connected_graphs(max_n=20, max_extra=30, weights=coarse_weights)),
    st.data(),
)
def test_forest_matches_kruskal_over_all_augmented_edges(g, data):
    roots = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    eps = data.draw(st.sampled_from([0.05, 0.5, 2.0]))
    assert slt_forest(g, roots, eps) == oracles.slt_forest_reference(g, roots, eps)


@pytest.mark.parametrize("family, n", [("geometric_unit_square", 200), ("erdos_renyi", 150), ("grid", 144)])
def test_forest_matches_reference_on_generated_graphs(family, n):
    g = generate_graph(family, n, seed=6)
    for roots in ([0], list(range(0, n, 17)), list(range(1, n, 3))):
        assert slt_forest(g, roots, 0.05) == oracles.slt_forest_reference(g, roots, 0.05)
