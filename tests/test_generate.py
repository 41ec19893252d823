import random

import pytest

from lightspanner import generate
from lightspanner.errors import GenerationError
from lightspanner.generate import FAMILIES, default_geometric_radius, generate_graph

from . import oracles


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_yields_connected_graph(family):
    g = generate_graph(family, 40, seed=3)
    assert g.n >= 40 if family == "grid" else g.n == 40
    # constructor would have raised on a disconnected result; sanity-check reach
    assert all(d < float("inf") for d in oracles.dijkstra(g, 0).dist)


@pytest.mark.parametrize("family", FAMILIES)
def test_same_seed_same_graph(family):
    a = generate_graph(family, 30, seed=7)
    b = generate_graph(family, 30, seed=7)
    assert a.edges == b.edges


def test_different_seeds_differ():
    a = generate_graph("erdos_renyi", 30, seed=1)
    b = generate_graph("erdos_renyi", 30, seed=2)
    assert a.edges != b.edges


def test_path_shape():
    g = generate_graph("path", 10, seed=0)
    assert g.m == 9
    assert all(v == u + 1 for u, v, _ in g.edges)


def test_star_shape():
    g = generate_graph("star", 10, seed=0)
    assert g.m == 9
    assert all(u == 0 for u, v, _ in g.edges)


def test_grid_shape_from_n():
    g = generate_graph("grid", 12, seed=0)  # 3 x 4
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4


def test_grid_explicit_rows_cols_override_n():
    g = generate_graph("grid", 2, rows=2, cols=5, seed=0)
    assert g.n == 10 and g.m == 2 * 4 + 1 * 5


@pytest.mark.parametrize("rows, cols", [(1, 1), (0, 5), (3, 0), (-2, -3), (5, None), (None, 5)])
def test_grid_shape_needs_two_vertices_in_rows_and_cols_of_at_least_one(rows, cols):
    with pytest.raises(ValueError, match=f"rows={rows}, cols={cols}"):
        generate_graph("grid", 5, rows=rows, cols=cols, seed=0)


def test_grid_prime_degenerates_to_path():
    g = generate_graph("grid", 7, seed=0)
    assert g.n == 7 and g.m == 6


def test_weight_range_respected():
    g = generate_graph("erdos_renyi", 50, seed=0, p=0.3, weight_range=(2.0, 3.0))
    assert all(2.0 <= w <= 3.0 for _, _, w in g.edges)


def test_geometric_weights_are_distances():
    g = generate_graph("geometric_unit_square", 60, seed=4)
    r = default_geometric_radius(60)
    assert all(0 < w <= r for _, _, w in g.edges)


def test_erdos_renyi_p_one_is_complete():
    g = generate_graph("erdos_renyi", 8, seed=0, p=1.0)
    assert g.m == 8 * 7 // 2


def test_erdos_renyi_rejects_bad_p():
    with pytest.raises(ValueError, match="probability"):
        generate_graph("erdos_renyi", 10, seed=0, p=0.0)
    with pytest.raises(ValueError, match="probability"):
        generate_graph("erdos_renyi", 10, seed=0, p=1.5)


def test_geometric_rejects_bad_radius():
    with pytest.raises(ValueError, match="radius"):
        generate_graph("geometric_unit_square", 10, seed=0, radius=0.0)


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate_graph("hypercube", 16)


def test_n_too_small():
    with pytest.raises(ValueError, match="n >= 2"):
        generate_graph("path", 1)


def test_a_disconnected_draw_is_redrawn_from_the_next_seed():
    from lightspanner.generate import _erdos_renyi_edges
    from lightspanner.graph import WeightedGraph, edges_connect

    retried = 0
    for seed in range(20):
        g = generate_graph("erdos_renyi", 30, seed=seed, p=0.1)
        draws = (_erdos_renyi_edges(30, 0.1, random.Random(seed + a), (1.0, 2.0)) for a in range(64))
        first, edges = next((a, e) for a, e in enumerate(draws) if edges_connect(30, e))
        retried += first > 0
        assert g == WeightedGraph(30, edges)
    assert retried


def test_sparse_random_graph_retries_then_gives_up(monkeypatch):
    # p far below the connectivity threshold: every retry draws a
    # disconnected graph and the generator must say so rather than loop.
    monkeypatch.setattr(generate, "_MAX_RETRIES", 3)
    with pytest.raises(GenerationError, match="after 3 retries"):
        generate_graph("erdos_renyi", 200, seed=0, p=0.001)
