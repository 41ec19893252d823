import dataclasses
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lightspanner.errors import SamplingError, SpannerError
from lightspanner.generate import generate_graph
from lightspanner import spanner, verify
from lightspanner.graph import WeightedGraph, subgraph_adjacency
from lightspanner.graphio import write_graph
from lightspanner.nets import greedy_delta_net
from lightspanner.spanner import (
    PHASE_H0,
    PHASE_SLT,
    PHASES,
    Spanner,
    _sample_levels_once,
    build_spanner,
    build_wmax_spanner,
    normalize,
    sample_levels,
    scale_index,
    spanner_from_json_dict,
)
from lightspanner.trees import mst

from . import oracles
from .conftest import loads_edge_list, random_connected_graph

import random


# ---------------------------------------------------------------- scale index


@given(st.floats(min_value=1e-6, max_value=1e9), st.floats(min_value=1e-3, max_value=0.0999))
def test_scale_index_window(d, eps):
    j = scale_index(d, eps)
    assert eps * d / 8.0 <= 2.0**j < eps * d / 4.0 * (1 + 1e-15)


def test_scale_index_known_value():
    assert scale_index(100.0, 0.08) == 0  # window [1, 2)


def test_scale_index_direct_threshold():
    eps = 0.0625  # a power of two keeps 4/eps exact
    assert scale_index(4.0 / eps, eps) == -1
    assert scale_index(4.0 / eps * 1.0000001, eps) == 0
    assert scale_index(1.0, eps) < 0


def test_scale_index_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_index(0.0, 0.05)
    with pytest.raises(ValueError):
        scale_index(-2.0, 0.05)


# ---------------------------------------------------------------- normalize


def test_normalize_sets_mst_weight_to_n():
    g = generate_graph("erdos_renyi", 60, seed=8, p=0.15, weight_range=(3.0, 11.0))
    gn, scale = normalize(g)
    assert mst(gn).total_weight == pytest.approx(60.0)
    assert scale == pytest.approx(60.0 / mst(g).total_weight)
    assert gn.n == g.n and gn.m == g.m


def test_normalize_rejects_a_graph_without_edges():
    with pytest.raises(ValueError, match="graph has no edges"):
        normalize(WeightedGraph(1, []))


# ---------------------------------------------------------------- level sampling


def test_levels_are_nested_and_nonempty():
    g = generate_graph("geometric_unit_square", 200, seed=2)
    s = sample_levels(g, 3, seed=0)
    assert s.levels[0] == frozenset(range(200))
    for i in range(3):
        assert s.levels[i + 1] <= s.levels[i]
        assert s.levels[i + 1]
    for v in range(g.n):
        assert s.level_of[v] == max(i for i in range(4) if v in s.levels[i])


def test_pivots_match_reference_scan():
    g = generate_graph("grid", 64, seed=5)
    s = sample_levels(g, 2, seed=1)
    for i in range(3):
        table = oracles.multi_source_dijkstra(g, sorted(s.levels[i]))
        assert s.pivot_dist[i] == table.dist


def test_sampling_deterministic():
    g = generate_graph("erdos_renyi", 100, seed=0, p=0.1)
    assert sample_levels(g, 2, seed=9) == sample_levels(g, 2, seed=9)
    assert sample_levels(g, 2, seed=9) != sample_levels(g, 2, seed=10)


def test_sampling_rejects_bad_k():
    g = generate_graph("path", 10, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        sample_levels(g, 0, seed=0)


@pytest.mark.parametrize("k, seed", [(True, 0), (2, 1.5), (2, True), (2.0, 0)])
def test_build_rejects_a_k_or_seed_the_loader_refuses(monkeypatch, k, seed):
    # spanner_from_json_dict needs plain ints, k >= 1; bools and floats are refused
    g = generate_graph("path", 10, seed=0)
    with pytest.raises(ValueError, match="k must be|seed must be"):
        sample_levels(g, k, seed)
    monkeypatch.setattr(spanner, "normalize", lambda g: pytest.fail("normalized before the check"))
    with pytest.raises(ValueError, match="k must be|seed must be"):
        build_spanner(g, 0.05, k, seed)


def test_sampling_warns_on_oversized_k():
    g = generate_graph("path", 8, seed=0)
    with pytest.warns(UserWarning, match="exceeds log2"):
        sample_levels(g, 5, seed=0)


def test_sampling_resamples_until_nonempty(monkeypatch):
    g = generate_graph("path", 2, seed=0)
    # hunt down a seed whose first draw leaves A_1 empty; the wrapper must
    # either retry past it (effective_seed > seed) or give up when capped
    bad = next(
        s for s in range(1000) if not _sample_levels_once(2, 1, 2 ** -0.5, random.Random(s))[1]
    )
    with monkeypatch.context() as m:
        m.setattr(spanner, "SAMPLING_RETRIES", 1)
        with pytest.raises(SamplingError, match="stayed empty"):
            sample_levels(g, 1, seed=bad)
    ok = sample_levels(g, 1, seed=bad)
    assert ok.effective_seed > bad
    assert ok.levels[1]


def test_promotion_rate_is_calibrated():
    # one promotion round at n = 1024, k = 2 targets E|A_1| = n^{1/2} = 32;
    # 200 draws put a 3-sigma band of +-1.2 around it (sd per draw ~ 5.57)
    n, k = 1024, 2
    p = n ** (-1.0 / k)
    sizes = [len(_sample_levels_once(n, k, p, random.Random(seed))[1]) for seed in range(200)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 32.0) < 1.2


# ---------------------------------------------------------------- bunches


@pytest.mark.parametrize(
    "family, n", [("geometric_unit_square", 300), ("path", 200), ("erdos_renyi", 200)]
)
def test_phase2_connects_every_center_to_exactly_its_bunch(family, n):
    # a center's bunch: its level-mates strictly inside (1-eps)/2 times its
    # pivot distance, or the whole top level for a top center; the center
    # itself needs no connection, so its records name the rest
    eps = 0.05
    internals = build_spanner(generate_graph(family, n, seed=0), eps, 2, 3).internals
    gn, s = internals.normalized, internals.sampling
    connected = {u: [] for u in range(n)}
    for r in internals.records:
        connected[r.center].append(r.member)
    for u in range(n):
        i = s.level_of[u]
        if i == s.k:
            bunch = sorted(s.levels[s.k])
        else:
            dist = oracles.dijkstra(gn, u).dist
            radius = 0.5 * (1.0 - eps) * s.pivot_dist[i + 1][u]
            bunch = sorted(v for v in s.levels[i] if dist[v] < radius)
        assert connected[u] == [v for v in bunch if v != u], u


# ---------------------------------------------------------------- full build


@pytest.fixture(scope="module")
def geo_spanner(medium_geometric):
    return build_spanner(medium_geometric, eps=0.05, k=2, seed=1)


@pytest.fixture(scope="module")
def path_spanner():
    g = generate_graph("path", 300, seed=3)
    return build_spanner(g, eps=0.09, k=2, seed=3)


def test_spanner_is_subgraph(geo_spanner):
    g = geo_spanner.host
    for u, v in geo_spanner.edges:
        assert g.has_edge(u, v)
    assert set(geo_spanner.phase_tag) == set(geo_spanner.edges)
    assert all(tag in PHASES for tag in geo_spanner.phase_tag.values())


def test_spanner_spans(geo_spanner):
    WeightedGraph(geo_spanner.host.n, [(u, v, 1.0) for u, v in geo_spanner.edges])


def test_h0_tags_cover_exactly_the_hierarchy_edges(geo_spanner):
    tagged = {e for e, t in geo_spanner.phase_tag.items() if t == PHASE_H0}
    assert tagged == set(geo_spanner.internals.hierarchy.h0_edges)


def test_per_phase_totals_add_up(geo_spanner):
    per = geo_spanner.per_phase()
    assert set(per) == set(PHASES)
    assert sum(c for c, _ in per.values()) == geo_spanner.size
    assert sum(w for _, w in per.values()) == pytest.approx(geo_spanner.weight())


def test_build_deterministic(medium_geometric):
    a = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    b = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    assert a.edges == b.edges and a.phase_tag == b.phase_tag


def test_build_respects_eps_guard(medium_geometric):
    with pytest.raises(ValueError, match="eps"):
        build_spanner(medium_geometric, eps=0.2, k=2, seed=0)
    sp = build_spanner(medium_geometric, eps=0.2, k=2, seed=0, unsafe_eps=True)
    assert sp.size > 0


def test_spanner_of_tree_is_the_tree():
    g = generate_graph("path", 50, seed=12, weight_range=(1.0, 3.0))
    sp = build_spanner(g, eps=0.05, k=2, seed=0)
    assert sp.edges == {(u, v) for u, v, _ in g.edges}


def test_keep_internals_false_drops_state(medium_geometric):
    sp = build_spanner(medium_geometric, eps=0.05, k=2, seed=1, keep_internals=False)
    assert sp.internals is None
    full = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    assert sp.edges == full.edges and sp.phase_tag == full.phase_tag


# ------------------------------------------------------- phase-2 record audit


def _record_checks(sp: Spanner):
    internals = sp.internals
    gn = internals.normalized
    sampling = internals.sampling
    hierarchy = internals.hierarchy
    eps = sp.params.eps
    delta = 0.5 * (1.0 - eps)
    rows = {}  # center -> its distances in the normalized graph, one scan each
    for rec in internals.records:
        assert rec.path[0] == rec.center and rec.path[-1] == rec.target
        if rec.center not in rows:
            rows[rec.center] = oracles.dijkstra(gn, rec.center).dist
        dist_member = rows[rec.center][rec.member]
        total = 0.0
        for a, b in zip(rec.path, rec.path[1:]):
            total += gn.weight_of(a, b)
        # the scan accumulated dist along this same chain, so equality is exact
        assert total == rec.dist_target
        if rec.scale < 0:
            assert rec.target == rec.member
            assert dist_member <= 4.0 / eps
        else:
            assert rec.target == hierarchy.rep(rec.member, rec.scale)
            assert dist_member > 4.0 / eps * (1 - 1e-12)
        if rec.center_level < sampling.k:
            pd = sampling.pivot_dist[rec.center_level + 1][rec.center]
            assert dist_member < delta * pd
            assert rec.dist_target <= (1.0 + 0.5 * eps) * delta * pd


def test_phase2_records_consistent_geo(geo_spanner):
    assert geo_spanner.internals.records
    _record_checks(geo_spanner)


def test_phase2_records_consistent_path(path_spanner):
    _record_checks(path_spanner)


def test_path_family_exercises_representative_routing(path_spanner):
    # near-diameter pivot distances on a path push bunch members past the
    # direct-connection threshold, so rep-routed records must appear; their
    # edges may still carry other tags (first tag wins), so check records,
    # not phase_tag
    kinds = {rec.scale >= 0 for rec in path_spanner.internals.records}
    assert kinds == {True, False}


# ---------------------------------------------------------------- subgraph rows


def _assert_rows_share_host_entries(rows, host, pairs):
    """The rows equal those built from the sorted pairs, and every entry is
    an entry object of the host's row."""
    assert rows == oracles.subgraph_rows_reference(host, pairs)
    for u, row in enumerate(rows):
        own = {id(e) for e in host.adj[u]}
        assert all(id(e) in own for e in row)


def test_spanner_rows_share_the_host_entries(geo_spanner):
    _assert_rows_share_host_entries(geo_spanner.adjacency(), geo_spanner.host, geo_spanner.edges)


def test_loaded_spanner_rows_share_the_loaded_host_entries(geo_spanner):
    # as verify loads them: the graph from its file, the spanner from JSON text
    buf = io.StringIO()
    write_graph(geo_spanner.host, buf)
    host = loads_edge_list(buf.getvalue())
    loaded = spanner_from_json_dict(json.loads(json.dumps(geo_spanner.to_json_dict())), host)
    _assert_rows_share_host_entries(loaded.adjacency(), host, loaded.edges)


def test_lemma_suite_subgraph_rows_share_the_normalized_entries(geo_spanner, monkeypatch):
    built = []

    def recording(adj, pairs):
        rows = subgraph_adjacency(adj, pairs)
        built.append((adj, set(pairs), rows))
        return rows

    monkeypatch.setattr(verify, "subgraph_adjacency", recording)
    gn = geo_spanner.internals.normalized
    h0 = geo_spanner.internals.hierarchy.h0_edges
    # the records certify every bunch distance, so H's rows are never built
    assert verify.verify_lemma_suite(geo_spanner.host, geo_spanner).passed
    assert [pairs for _, pairs, _ in built] == [set(h0 & geo_spanner.edges)]
    # without the last edge of a direct record's path, its center needs a scan on H
    rec = next(r for r in geo_spanner.internals.records if r.target == r.member and len(r.path) >= 2)
    a, b = rec.path[-2:]
    broken = dataclasses.replace(
        geo_spanner, phase_tag={e: t for e, t in geo_spanner.phase_tag.items() if e != (min(a, b), max(a, b))}
    )
    built.clear()
    verify.verify_lemma_suite(broken.host, broken)
    assert [pairs for _, pairs, _ in built] == [set(h0 & broken.edges), set(broken.edges)]
    for adj, pairs, rows in built:
        assert adj is gn.adj
        _assert_rows_share_host_entries(rows, gn, pairs)


# ---------------------------------------------------------------- persistence


def test_loaded_spanner_keeps_the_phase_constants_and_one_int_per_vertex(path_spanner):
    # JSON text gives every row its own tag string and, for ids above 256,
    # its own ints; the loader keeps neither
    host = path_spanner.host
    loaded = spanner_from_json_dict(json.loads(json.dumps(path_spanner.to_json_dict())), host)
    assert loaded.phase_tag == path_spanner.phase_tag
    assert all(any(tag is phase for phase in PHASES) for tag in loaded.phase_tag.values())
    assert max(path_spanner.edges)[1] > 256
    assert len({id(x) for key in loaded.phase_tag for x in key}) <= host.n


def test_json_round_trip(geo_spanner):
    payload = geo_spanner.to_json_dict()
    back = spanner_from_json_dict(payload, geo_spanner.host)
    assert back.edges == geo_spanner.edges
    assert back.phase_tag == geo_spanner.phase_tag
    assert back.params == geo_spanner.params
    assert back.scale == geo_spanner.scale


def test_json_rejects_bad_schema(geo_spanner):
    payload = geo_spanner.to_json_dict()
    payload["schema"] = "spanner/v999"
    with pytest.raises(Exception, match="schema"):
        spanner_from_json_dict(payload, geo_spanner.host)


def test_json_rejects_wrong_host(geo_spanner):
    payload = geo_spanner.to_json_dict()
    other = generate_graph("path", 10, seed=0)
    with pytest.raises(Exception, match="n="):
        spanner_from_json_dict(payload, other)


def test_json_rejects_foreign_edge(geo_spanner):
    payload = geo_spanner.to_json_dict()
    g = geo_spanner.host
    fake = next(
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    )
    payload["edges"].append([fake[0], fake[1], 1.0, "H0"])
    with pytest.raises(Exception, match="not a host edge"):
        spanner_from_json_dict(payload, g)


@pytest.mark.parametrize("stray", ["reversed", "absent"])
@pytest.mark.parametrize(
    "read",
    [
        lambda sp: list(sp.edge_rows()),
        lambda sp: sp.weight(),
        lambda sp: sp.per_phase(),
        lambda sp: sp.to_json_dict(),
        lambda sp: verify.verify_lightness(sp.host, sp),
    ],
    ids=["edge_rows", "weight", "per_phase", "to_json_dict", "verify_lightness"],
)
def test_a_tag_key_that_is_no_host_edge_raises(geo_spanner, stray, read):
    g = geo_spanner.host
    u, v, _ = g.edges[len(g.edges) // 2]
    if stray == "reversed":  # a host edge, keyed in the wrong orientation
        key = (v, u)
    else:
        key = next((a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b))
    tags = {**geo_spanner.phase_tag, key: PHASE_H0}
    with pytest.raises(ValueError, match=rf"no edge \({key[0]}, {key[1]}\)"):
        read(Spanner(g, tags, geo_spanner.params, geo_spanner.scale))


def test_json_rejects_weight_drift(geo_spanner):
    payload = geo_spanner.to_json_dict()
    payload["edges"][0][2] *= 2.0
    with pytest.raises(Exception, match="weight"):
        spanner_from_json_dict(payload, geo_spanner.host)


def test_json_rejects_unknown_tag(geo_spanner):
    payload = geo_spanner.to_json_dict()
    payload["edges"][0][3] = "P9"
    with pytest.raises(Exception, match="tag"):
        spanner_from_json_dict(payload, geo_spanner.host)


# ---------------------------------------------------------------- wmax variant


def _heavy_star(n: int = 16) -> WeightedGraph:
    # one long spoke dominates the MST, so normalization leaves it heavy
    edges = [(0, i, 1.0) for i in range(1, n - 1)]
    edges.append((0, n - 1, 40.0 * n))
    return WeightedGraph(n, edges)


def test_wmax_build_on_heavy_star():
    g = _heavy_star()
    sp = build_wmax_spanner(g, eps=0.5)
    assert sp.params.kind == "wmax"
    assert sp.params.k is None and sp.params.seed is None
    assert set(sp.phase_tag.values()) == {PHASE_SLT}
    assert sp.edges == {(u, v) for u, v, _ in g.edges}  # host is a tree


def test_wmax_net_size_bound(monkeypatch):
    g = _heavy_star(25)
    nets = []

    def recording_net(gn, delta):
        nets.append(greedy_delta_net(gn, delta))
        return nets[-1]

    monkeypatch.setattr(spanner, "greedy_delta_net", recording_net)
    sp = build_wmax_spanner(g, eps=0.5)
    (net,) = nets
    assert len(net.members) <= 2 * math.sqrt(g.n)
    assert net.delta == pytest.approx(math.sqrt(g.n))
    assert sp.internals is None


def test_wmax_rejects_light_instances():
    g = generate_graph("grid", 49, seed=0)
    with pytest.raises(ValueError) as err:
        build_wmax_spanner(g, eps=0.5)
    msg = str(err.value)
    assert "sqrt(n)" in msg and "got" in msg


def test_wmax_rejects_bad_eps():
    with pytest.raises(ValueError, match="eps"):
        build_wmax_spanner(_heavy_star(), eps=0.0)


class _Float(float):
    """A float subclass, as numpy.float64 is."""


def _build(kind, eps):
    if kind == "wmax":
        return build_wmax_spanner(_heavy_star(), eps)
    return build_spanner(generate_graph("path", 10, seed=0), eps, 2, 0)


@pytest.mark.parametrize(
    "kind, eps",
    [("wmax", True), ("wmax", 10**400), ("hierarchical", Fraction(1, 20)), ("hierarchical", Decimal("0.05"))],
    ids=["bool", "huge-int", "fraction", "decimal"],
)
def test_build_rejects_an_eps_the_loader_refuses(monkeypatch, kind, eps):
    sp = _build(kind, 0.05)
    monkeypatch.setattr(spanner, "normalize", lambda g: pytest.fail("normalized before the check"))
    with pytest.raises(ValueError) as built:
        _build(kind, eps)
    if isinstance(eps, int):  # JSON holds a bool or a huge int, not a Fraction or a Decimal
        payload = json.loads(json.dumps({**sp.to_json_dict(), "eps": eps}))
        with pytest.raises(SpannerError) as loaded:
            spanner_from_json_dict(payload, sp.host)
        assert str(loaded.value) == str(built.value)


@pytest.mark.parametrize("kind", ["hierarchical", "wmax"])
def test_a_float_subclass_eps_builds_the_file_a_float_builds(kind):
    sp = _build(kind, 0.05)
    text = json.dumps(_build(kind, _Float(0.05)).to_json_dict())
    assert text == json.dumps(sp.to_json_dict())
    assert spanner_from_json_dict(json.loads(text), sp.host).params == sp.params


def test_wmax_size_stays_quadratic_root():
    g = random_connected_graph(36, 80, seed=5)
    # rescale one edge so the heavy-weight precondition holds
    edges = [list(e) for e in g.edges]
    edges[0][2] = 500.0
    g2 = WeightedGraph(36, [tuple(e) for e in edges])
    sp = build_wmax_spanner(g2, eps=0.5)
    assert sp.size <= 4 * 36**1.5
