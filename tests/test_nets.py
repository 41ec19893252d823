import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from lightspanner import nets
from lightspanner.generate import generate_graph
from lightspanner.graph import WeightedGraph, scan
from lightspanner.nets import (
    DeltaNet,
    build_net_hierarchy,
    check_eps,
    greedy_delta_net,
    max_level,
)
from lightspanner.spanner import normalize
from lightspanner.trees import mst
from lightspanner.verify import verify_net

from .conftest import coarse_weights, connected_graphs
from . import oracles


@given(connected_graphs(), st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
def test_greedy_net_covers_and_packs(g, delta):
    net = greedy_delta_net(g, delta)
    rows = oracles.all_pairs_via_bf(g)
    for v in range(g.n):
        assert min(rows[v][c] for c in net.members) <= delta
    for a in net.members:
        for b in net.members:
            if a < b:
                assert rows[a][b] > delta


def test_zero_delta_net_is_everything():
    g = generate_graph("grid", 12, seed=0)
    net = greedy_delta_net(g, 0.0)
    assert net.members == tuple(range(12))


def test_huge_delta_net_is_first_vertex():
    g = generate_graph("grid", 12, seed=0)
    net = greedy_delta_net(g, 1e9)
    assert net.members == (0,)
    assert 0 in net and 11 not in net  # __contains__ on DeltaNet


def test_seed_validation():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_delta_net(g, -1.0)


@given(connected_graphs(), st.sampled_from([0.5, 1.0, 2.0]))
def test_greedy_net_agrees_with_reference_checker(g, delta):
    report = verify_net(g, greedy_delta_net(g, delta))
    assert not report.covering_violations and not report.packing_violations


def test_max_level_values():
    assert max_level(2) == 1
    assert max_level(3) == 2
    assert max_level(4) == 2
    assert max_level(5) == 3
    assert max_level(1024) == 10
    assert max_level(1025) == 11


def _normalized(family, n, seed, **kw):
    g = generate_graph(family, n, seed=seed, **kw)
    return normalize(g)[0]


def test_hierarchy_levels_are_nested():
    g = _normalized("geometric_unit_square", 120, 3)
    h = build_net_hierarchy(g, 0.05)
    for i in range(h.i_max):
        assert set(h.levels[i + 1].members) <= set(h.levels[i].members)
    assert h.levels[h.i_max].members == (0,)
    assert h.levels[-1].members == tuple(range(g.n))
    assert h.levels[-1].delta == 0.0


def test_hierarchy_levels_pass_net_checks():
    g = _normalized("erdos_renyi", 90, 5, p=0.1)
    h = build_net_hierarchy(g, 0.07)
    for i in range(h.i_max):  # the fiat top level only covers, skip it
        report = verify_net(g, h.levels[i])
        assert report.passed, (i, report.covering_violations, report.packing_violations)


def test_top_level_always_covers():
    g = _normalized("path", 64, 2)
    h = build_net_hierarchy(g, 0.05)
    report = verify_net(g, h.levels[h.i_max])
    assert not report.covering_violations


def test_nearest_tables_match_reference_scan(medium_geometric):
    g = normalize(medium_geometric)[0]
    h = build_net_hierarchy(g, 0.05)
    for j in (0, 1, h.i_max):
        table = oracles.multi_source_dijkstra(g, h.levels[j].members)
        assert h.nearest[j] == table.origin


def test_rep_of_negative_level_is_identity():
    g = _normalized("path", 32, 0)
    h = build_net_hierarchy(g, 0.05)
    for v in range(g.n):
        assert h.rep(v, -1) == v


def test_rep_lands_in_the_right_level():
    g = _normalized("geometric_unit_square", 100, 7)
    h = build_net_hierarchy(g, 0.05)
    for i in range(h.i_max + 1):
        for v in range(g.n):
            assert h.rep(v, i) in h.levels[i]


def test_h0_weight_stays_within_logarithmic_budget():
    # each of the <= i_max + 2 levels contributes at most (8 / eps) * w(MST)
    for family, n, seed in [("geometric_unit_square", 150, 0), ("erdos_renyi", 120, 4)]:
        kw = {"p": 0.08} if family == "erdos_renyi" else {}
        g = _normalized(family, n, seed, **kw)
        eps = 0.05
        h = build_net_hierarchy(g, eps)
        bound = (8.0 / eps) * (h.i_max + 2) * mst(g).total_weight
        assert sum(g.weight_of(u, v) for u, v in h.h0_edges) <= bound


def test_h0_edges_exist_in_graph():
    g = _normalized("grid", 64, 9)
    h = build_net_hierarchy(g, 0.05)
    for u, v in h.h0_edges:
        assert g.has_edge(u, v)


def test_hierarchy_rejects_unnormalized_graph():
    g = generate_graph("path", 40, seed=0, weight_range=(5.0, 9.0))
    with pytest.raises(ValueError, match="normalized"):
        build_net_hierarchy(g, 0.05)


def test_hierarchy_deterministic():
    g = _normalized("erdos_renyi", 80, 11, p=0.1)
    a = build_net_hierarchy(g, 0.06)
    b = build_net_hierarchy(g, 0.06)
    assert a == b


def test_check_eps_boundaries():
    check_eps(0.05)
    check_eps(0.0999)
    with pytest.raises(ValueError, match="eps"):
        check_eps(0.1)
    with pytest.raises(ValueError, match="eps"):
        check_eps(0.0)
    with pytest.raises(ValueError, match="eps"):
        check_eps(-0.01)
    check_eps(0.5, unsafe_eps=True)
    with pytest.raises(ValueError, match="eps"):
        check_eps(1.0, unsafe_eps=True)


# ------------------------------------------- one scan per distinct net


def _assert_matches_reference(g, eps):
    """Every field equals the reference's, and rep(v, i), computed on demand,
    equals the reference's representative table for every vertex and level."""
    h = build_net_hierarchy(g, eps, unsafe_eps=True)
    ref, rep_table = oracles.net_hierarchy_reference(g, eps)
    for f in dataclasses.fields(h):
        assert getattr(h, f.name) == getattr(ref, f.name), f.name
    assert len(rep_table) == h.i_max + 1
    for i, row in enumerate(rep_table):
        assert [h.rep(v, i) for v in range(g.n)] == list(row), i


@pytest.mark.parametrize(
    "family, n, seed, kw, eps",
    [
        ("path", 64, 2, {}, 0.05),
        ("grid", 81, 1, {}, 0.05),
        ("erdos_renyi", 120, 4, {"p": 0.08}, 0.07),
        ("geometric_unit_square", 150, 0, {}, 0.05),
        ("geometric_unit_square", 90, 5, {}, 0.3),
    ],
)
def test_hierarchy_matches_one_scan_per_level_reference(family, n, seed, kw, eps):
    _assert_matches_reference(_normalized(family, n, seed, **kw), eps)


@settings(max_examples=60)
@given(
    st.one_of(connected_graphs(max_n=24, max_extra=30), connected_graphs(max_n=24, max_extra=30, weights=coarse_weights)),
    st.sampled_from([0.05, 0.09, 0.3]),
)
def test_hierarchy_matches_reference_on_random_graphs(g, eps):
    _assert_matches_reference(normalize(g)[0], eps)


@pytest.mark.parametrize("family, n, kw", [("geometric_unit_square", 200, {}), ("erdos_renyi", 150, {"p": 0.06})])
def test_hierarchy_scans_each_distinct_net_once(monkeypatch, family, n, kw):
    """One fresh scan, of the top net, then one in-place scan per member the
    greedy extensions add, top level first; repeated levels share rows."""
    g = _normalized(family, n, 3, **kw)
    fresh, lowered = [], []

    def counting_scan(n, adj, sources, tables=None):
        (fresh if tables is None else lowered).append(tuple(sources))
        return scan(n, adj, sources, tables)

    monkeypatch.setattr(nets, "scan", counting_scan)
    h = build_net_hierarchy(g, 0.05)
    assert fresh == [h.levels[h.i_max].members]
    added = []
    for j in range(h.i_max - 1, -1, -1):
        added += sorted(set(h.levels[j].members) - set(h.levels[j + 1].members))
    assert lowered == [(v,) for v in added]
    distinct = {h.levels[j].members for j in range(h.i_max + 1)}
    assert len(distinct) < h.i_max + 1  # top levels repeat, so sharing is exercised
    for j in range(h.i_max):
        if h.levels[j].members == h.levels[j + 1].members:
            assert h.nearest[j] is h.nearest[j + 1]
