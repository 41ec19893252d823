import dataclasses
import hashlib
import json
import math
import random

import pytest

from lightspanner.errors import SpannerError
from lightspanner.generate import generate_graph
from lightspanner.graph import WeightedGraph, edges_connect
from lightspanner.nets import DeltaNet, greedy_delta_net
from lightspanner.spanner import (
    PHASE_H0,
    Spanner,
    SpannerParams,
    build_spanner,
    build_wmax_spanner,
    spanner_from_json_dict,
)
from lightspanner.trees import SpanningTree, mst, slt_forest
from lightspanner import graph as graph_module
from lightspanner import verify as verify_module
from lightspanner.verify import (
    WITNESS_CAP,
    LemmaResult,
    LemmaSuiteReport,
    LightnessReport,
    NetReport,
    SltReport,
    StretchReport,
    additive_stretch_constant,
    delta_parameter,
    verify_lemma_suite,
    verify_lightness,
    verify_net,
    verify_slt,
    verify_stretch,
)

from . import oracles
from .conftest import crowded_slot_graph, erdos_renyi_with_a_heavy_edge


def _identity_spanner(g, eps=0.05, k=2):
    return Spanner(
        host=g,
        phase_tag={(u, v): PHASE_H0 for u, v, _ in g.edges},
        params=SpannerParams(eps=eps, k=k, seed=0, kind="hierarchical"),
        scale=1.0,
    )


# ---------------------------------------------------------------- constants


def test_published_constants():
    assert delta_parameter(0.05, 2) == 7 + 14 * 2 / 0.05
    d = delta_parameter(0.1, 1)
    assert additive_stretch_constant(0.1, 1) == 24 * (3 * d)
    d2 = delta_parameter(0.1, 3)
    assert additive_stretch_constant(0.1, 3) == 24 * (3 * d2) ** 3


# ---------------------------------------------------------------- stretch


def test_identity_spanner_has_no_stretch():
    g = generate_graph("erdos_renyi", 40, seed=1, p=0.2)
    report = verify_stretch(g, _identity_spanner(g))
    assert report.passed
    assert report.worst_mult_stretch == 1.0
    assert report.worst_additive_slack == 0.0
    assert report.pairs_checked == 40 * 39 // 2
    assert report.alpha == 1.0 + 2 * 0.05


def test_mst_of_cycle_stretches_but_passes():
    # dropping one unit edge of C_10 forces a detour of length 9 for its
    # endpoints; the additive budget absorbs it with room to spare
    n = 10
    cyc = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    g = WeightedGraph(n, cyc)
    sp = Spanner(
        host=g,
        phase_tag={(u, v): PHASE_H0 for u, v, _ in g.edges if (u, v) != (0, n - 1)},
        params=SpannerParams(eps=0.05, k=1, seed=0, kind="hierarchical"),
        scale=1.0,
    )
    report = verify_stretch(g, sp)
    assert report.worst_mult_stretch == pytest.approx(9.0)
    assert report.worst_additive_slack > 0
    assert report.passed


def test_disconnected_candidate_fails_stretch():
    g = generate_graph("path", 30, seed=0)
    sp = build_spanner(g, eps=0.05, k=1, seed=0)
    dropped = sorted(sp.edges)[10]
    broken = dataclasses.replace(
        sp, phase_tag={e: tag for e, tag in sp.phase_tag.items() if e != dropped}
    )
    report = verify_stretch(g, broken)
    assert not report.passed
    assert report.violation_count > 0
    x, y, dg, dh, w = report.violations[0]
    assert dh == math.inf and dg < math.inf


def _without_edges(sp, drop):
    return dataclasses.replace(sp, phase_tag={e: tag for e, tag in sp.phase_tag.items() if e not in drop})


def _heavy_wheel():
    # hub 0, unit spokes to a rim path 1..39 of unit edges, and one heavy
    # spoke to 40, so build_wmax_spanner's precondition holds
    edges = [(0, i, 1.0) for i in range(1, 40)] + [(i, i + 1, 1.0) for i in range(1, 39)] + [(0, 40, 600.0)]
    return WeightedGraph(41, edges)


@pytest.fixture(scope="module")
def stretch_cases():
    geo = generate_graph("geometric_unit_square", 150, seed=11)
    gnp = generate_graph("erdos_renyi", 120, seed=2)
    path = generate_graph("path", 30, seed=0)
    wheel = _heavy_wheel()
    wmax = build_wmax_spanner(wheel, eps=0.5)
    # spokes and rim edges cut away from vertices 1..6 leave them isolated
    cut = {e for e in wmax.edges if e[0] in range(1, 7) or (e[0] == 0 and e[1] in range(1, 7))}
    path_sp = build_spanner(path, eps=0.05, k=1, seed=0)
    # H drops edge (0, 2): d_H(0, 2) = 1.1055 sits just above alpha * d_G = 1.1
    triangle = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.6055), (0, 2, 1.0)])
    near_line = Spanner(
        host=triangle,
        phase_tag={(0, 1): PHASE_H0, (1, 2): PHASE_H0},
        params=SpannerParams(eps=0.05, k=1, seed=0, kind="hierarchical"),
        scale=1.0,
    )
    return {
        "near-line": (triangle, near_line),
        "geometric": (geo, build_spanner(geo, eps=0.05, k=2, seed=1)),
        "gnp": (gnp, build_spanner(gnp, eps=0.05, k=2, seed=0)),
        "disconnected": (path, _without_edges(path_sp, {sorted(path_sp.edges)[10]})),
        "wmax": (wheel, wmax),
        "wmax-cut": (wheel, _without_edges(wmax, cut)),
    }


@pytest.mark.parametrize("mode", ["all_pairs", "sampled"])
@pytest.mark.parametrize("case", ["near-line", "geometric", "gnp", "disconnected", "wmax", "wmax-cut"])
def test_stretch_report_matches_the_full_scan_reference(stretch_cases, case, mode):
    g, sp = stretch_cases[case]
    got = verify_stretch(g, sp, mode=mode, sample_size=17, seed=4)
    assert got.to_json_dict() == oracles.stretch_reference(g, sp, mode=mode, sample_size=17, seed=4).to_json_dict()
    if case == "wmax-cut" and mode == "all_pairs":
        assert got.violation_count > WITNESS_CAP
        assert len(got.violations) == WITNESS_CAP


def _sources(n, mode):
    return list(range(n)) if mode == "all_pairs" else sorted(random.Random(4).sample(range(n), 17))


def _calls(monkeypatch, owner, name):
    """(arguments, result) of every call of owner.<name> from now on."""
    calls = []
    kernel = getattr(owner, name)

    def counted(*args):
        result = kernel(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["all_pairs", "sampled"])
@pytest.mark.parametrize(
    "family, n, ring", [("path", 40, False), ("star", 60, True), ("grid", 100, True), ("erdos_renyi", 120, True)]
)
def test_stretch_on_either_queue_matches_the_full_scan_reference(monkeypatch, family, n, ring, mode):
    g = generate_graph(family, n, seed=3)
    sp = build_spanner(g, eps=0.05, k=2, seed=0)
    h_scans = _calls(monkeypatch, verify_module, "bucket_lowered")
    g_rings = _calls(monkeypatch, verify_module, "ring_distances_and_bottlenecks")
    got = verify_stretch(g, sp, mode=mode, sample_size=17, seed=4)
    assert got.to_json_dict() == oracles.stretch_reference(g, sp, mode=mode, sample_size=17, seed=4).to_json_dict()
    # the first source scans H on the heap and decides for the others; G's
    # queue is fixed before its first scan
    sources = _sources(n, mode)
    assert len(h_scans) == len(sources) - 1
    assert [args[2] for args, _ in g_rings] == (sources if ring else [])


@pytest.mark.parametrize("mode", ["all_pairs", "sampled"])
def test_stretch_with_one_heavy_edge_keeps_g_off_the_ring_and_matches_the_reference(monkeypatch, mode):
    g = erdos_renyi_with_a_heavy_edge(120, 3, 1e6)
    sp = build_spanner(g, eps=0.05, k=2, seed=0)

    def refused(*args):
        raise AssertionError("a ring of about 2e6 slots ran")

    monkeypatch.setattr(verify_module, "ring_distances_and_bottlenecks", refused)
    # the heavy edge does not widen H's bucket table, whose slots end at a
    # ceiling of twice the first source's eccentricity
    h_scans = _calls(monkeypatch, verify_module, "bucket_lowered")
    got = verify_stretch(g, sp, mode=mode, sample_size=17, seed=4)
    assert got.to_json_dict() == oracles.stretch_reference(g, sp, mode=mode, sample_size=17, seed=4).to_json_dict()
    assert len(h_scans) == len(_sources(g.n, mode)) - 1


@pytest.mark.parametrize("mode", ["all_pairs", "sampled"])
@pytest.mark.parametrize("family, n", [("geometric_unit_square", 150), ("path", 40)])
def test_stretch_on_heap_inputs_repairs_the_spanner_scan(monkeypatch, family, n, mode):
    g = generate_graph(family, n, seed=3)
    sp = build_spanner(g, eps=0.05, k=2, seed=0)

    def refused(*args):
        raise AssertionError("a second full scan of G ran")

    monkeypatch.setattr(verify_module, "distances_and_bottlenecks", refused)
    got = verify_stretch(g, sp, mode=mode, sample_size=17, seed=4)
    assert got.to_json_dict() == oracles.stretch_reference(g, sp, mode=mode, sample_size=17, seed=4).to_json_dict()


@pytest.mark.parametrize("mode", ["all_pairs", "sampled"])
@pytest.mark.parametrize("family, n", [("geometric_unit_square", 150), ("path", 40)])
def test_stretch_runs_no_heap_scan_after_the_first_source(monkeypatch, family, n, mode):
    g = generate_graph(family, n, seed=3)
    sp = build_spanner(g, eps=0.05, k=2, seed=0)

    def first_only(kernel, name):
        calls = []

        def once(*args):
            if calls:
                raise AssertionError(f"{name} ran after the first source")
            calls.append(args)
            return kernel(*args)

        return once

    # distances' heap loop is graph._lowered, which a bucket scan hands a
    # crowded slot to
    monkeypatch.setattr(verify_module, "distances", first_only(verify_module.distances, "distances"))
    monkeypatch.setattr(graph_module, "_lowered", first_only(graph_module._lowered, "_lowered"))

    def refused(*args):
        raise AssertionError("a full scan of G ran")

    monkeypatch.setattr(verify_module, "distances_and_bottlenecks", refused)
    got = verify_stretch(g, sp, mode=mode, sample_size=17, seed=4)
    assert got.to_json_dict() == oracles.stretch_reference(g, sp, mode=mode, sample_size=17, seed=4).to_json_dict()


@pytest.mark.parametrize("mode", ["all_pairs", "sampled"])
def test_stretch_where_a_slot_crowds_hands_scans_to_the_heap(monkeypatch, mode):
    g = crowded_slot_graph()
    h_scans = _calls(monkeypatch, verify_module, "bucket_lowered")
    got = verify_stretch(g, _identity_spanner(g), mode=mode, sample_size=17, seed=4)
    assert got.to_json_dict() == oracles.stretch_reference(
        g, _identity_spanner(g), mode=mode, sample_size=17, seed=4
    ).to_json_dict()
    # some scans re-settle more than n vertices and finish on the heap; none
    # re-settles more than n + 1 on the buckets
    resettled = [again for _, again in h_scans]
    assert max(resettled) == g.n + 1
    assert len(resettled) == len(_sources(g.n, mode)) - 1


def _absorbed_weight_case(seed, cut):
    """n=40, 80 edges, weights 1e16 (two in five) or 0.5, 1, 2, 3: a light
    weight vanishes in the rounding of a distance past a heavy edge. ``cut``
    removes up to a quarter of H's edges, each only if H stays connected, so
    the first H scan reaches every vertex and only the weights decide the
    queue."""
    rng = random.Random(seed)
    n = 40

    def weight():
        return 1e16 if rng.random() < 0.4 else rng.choice((0.5, 1.0, 2.0, 3.0))

    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = weight()
    while len(edges) < 2 * n:
        a, b = rng.sample(range(n), 2)
        edges.setdefault((min(a, b), max(a, b)), weight())
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
    sp = build_spanner(g, eps=0.05, k=2, seed=0)
    if cut:
        kept = dict(sp.phase_tag)
        order = sorted(kept)
        random.Random(seed).shuffle(order)
        goal = len(kept) - len(kept) // 4
        for e in order:
            if len(kept) == goal:
                break
            if edges_connect(n, [f for f in kept if f != e]):
                del kept[e]
        sp = dataclasses.replace(sp, phase_tag=kept)
    return g, sp


# sha256 of the all-pairs stretch report's json.dumps(..., sort_keys=True),
# recorded before the repaired scans existed; on (52, intact) a bottleneck
# walk run where weights vanish in distances gives another worst slack
ABSORBED_WEIGHT_REPORTS = {
    (0, False): "1f615759586da6920e77c725cbe50b81ebfeb5b40073dd8d8c61d605b816f6b2",
    (0, True): "01a45600f9e109416e7af5a704fe4551fa4a6ec4a29ca49aa70c17e96493bc42",
    (1, False): "2e37584586ab70a5609cc03232262f171ea223c38509b4291e02c64d5a20dfaf",
    (1, True): "f8486b350724940844cd18ca62eb9b93af4f7059f2a6ac3cd92d4967c0fe5385",
    (4, False): "e3c0d67ba9555010ab6745ce50221c36ab10981df4813c5e56f83f5e75ce5be8",
    (4, True): "759598bd328fb14b1234c496f3d4a5b42e3beced5683cffbaa3d019cb673ab59",
    (6, False): "2908ebb4c709bb4243c35f450b097cc1eae25af0b0c6b2e2c57b0ec884840352",
    (6, True): "f2db5a055de32d9d346fbe557b2adb98f93f460bf7e524e267b628976e46d796",
    (52, False): "26273705b07418d10fda87061c65f70eb87e75732d676f3b0c13f7fcc1a9cfc9",
    (52, True): "7506c6d14bdd7de91cc608db35bd962507c5682e3b4fd3f6e8dbf26a49a0d58f",
}


@pytest.mark.parametrize("seed, cut", sorted(ABSORBED_WEIGHT_REPORTS))
def test_stretch_where_weights_vanish_in_distances_keeps_the_heap(monkeypatch, seed, cut):
    g, sp = _absorbed_weight_case(seed, cut)

    def refused(*args):
        raise AssertionError("the repaired scan ran where a weight vanishes in a distance")

    monkeypatch.setattr(verify_module, "repaired_distances", refused)
    report = verify_stretch(g, sp, mode="all_pairs").to_json_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == ABSORBED_WEIGHT_REPORTS[seed, cut]
    assert report == oracles.stretch_reference(g, sp).to_json_dict()


def test_sampled_mode_is_deterministic(medium_geometric):
    g = medium_geometric
    sp = build_spanner(g, eps=0.05, k=2, seed=1)
    a = verify_stretch(g, sp, mode="sampled", sample_size=32, seed=5)
    b = verify_stretch(g, sp, mode="sampled", sample_size=32, seed=5)
    assert a == b
    assert a.pairs_checked == 32 * (g.n - 1)
    assert a.mode == "sampled"


def test_sample_size_capped_at_n():
    g = generate_graph("path", 12, seed=0)
    sp = build_spanner(g, eps=0.05, k=1, seed=0)
    report = verify_stretch(g, sp, mode="sampled", sample_size=500)
    assert report.pairs_checked == 12 * 11


def test_stretch_mode_validation(medium_geometric):
    sp = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    with pytest.raises(ValueError, match="mode"):
        verify_stretch(medium_geometric, sp, mode="exhaustive")


@pytest.mark.parametrize("size", [0, -1])
def test_sampled_mode_needs_a_positive_sample_size(size):
    # a sample of no sources would check no pair and pass vacuously
    g = generate_graph("path", 20, seed=0)
    sp = build_spanner(g, eps=0.05, k=1, seed=0)
    with pytest.raises(ValueError, match="sample_size >= 1"):
        verify_stretch(g, sp, mode="sampled", sample_size=size)


def test_all_pairs_on_one_vertex_passes_vacuously():
    g = WeightedGraph(1, [])
    report = verify_stretch(g, _identity_spanner(g))
    assert report.pairs_checked == 0
    assert report.passed


def test_lightness_rejects_a_graph_without_edges():
    g = WeightedGraph(1, [])
    with pytest.raises(ValueError, match="graph has no edges"):
        verify_lightness(g, _identity_spanner(g))


def test_host_mismatch_rejected(medium_geometric):
    sp = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    other = generate_graph("path", medium_geometric.n, seed=0)
    with pytest.raises(SpannerError, match="different graph"):
        verify_stretch(other, sp)


def test_stretch_report_serializes(medium_geometric):
    sp = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    d = verify_stretch(medium_geometric, sp, mode="sampled", sample_size=16).to_json_dict()
    assert d["schema"] == "stretch_report/v1"
    assert d["passed"] is True
    assert d["pairs_checked"] == 16 * (medium_geometric.n - 1)


def test_wmax_stretch_bound():
    edges = [(0, i, 1.0) for i in range(1, 15)] + [(0, 15, 600.0)]
    g = WeightedGraph(16, edges)
    sp = build_wmax_spanner(g, eps=0.5)
    report = verify_stretch(g, sp)
    assert report.passed
    assert report.alpha == 1.5
    assert report.bound_used == 2.0 * 1.5
    assert report.kind == "wmax"


# ---------------------------------------------------------------- lightness


def test_complete_graph_lightness():
    n = 10
    g = WeightedGraph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])
    report = verify_lightness(g, _identity_spanner(g))
    assert report.mst_weight == n - 1
    assert report.spanner_weight == n * (n - 1) / 2
    assert report.lightness == pytest.approx(5.0)
    assert report.passed


def test_tree_spanner_lightness_is_one():
    g = generate_graph("path", 25, seed=2, weight_range=(1.0, 4.0))
    report = verify_lightness(g, _identity_spanner(g))
    assert report.lightness == pytest.approx(1.0)


@pytest.mark.parametrize(
    "family, n, seed", [("geometric_unit_square", 300, 0), ("erdos_renyi", 200, 1), ("grid", 256, 2), ("path", 120, 3)]
)
def test_spanner_json_weights_equal_the_lightness_report(family, n, seed):
    g = generate_graph(family, n, seed=seed)
    sp = build_spanner(g, eps=0.05, k=2, seed=seed, keep_internals=False)
    payload = sp.to_json_dict()
    loaded = spanner_from_json_dict(payload, g)
    for spanner in (sp, loaded):
        report = verify_lightness(g, spanner)
        assert payload["weight"] == spanner.weight() == report.spanner_weight
        for tag, entry in payload["per_phase"].items():
            want = report.per_phase.get(tag, (0, 0.0))
            assert (entry["count"], entry["weight"]) == spanner.per_phase()[tag] == want


def test_per_phase_buckets_sum_to_totals(medium_geometric):
    sp = build_spanner(medium_geometric, eps=0.05, k=2, seed=1)
    report = verify_lightness(medium_geometric, sp)
    assert sum(c for c, _ in report.per_phase.values()) == report.size == sp.size
    assert sum(w for _, w in report.per_phase.values()) == pytest.approx(report.spanner_weight)
    assert report.to_json_dict()["schema"] == "lightness_report/v1"


# ---------------------------------------------------------------- nets


def test_verify_net_accepts_greedy_output(medium_geometric):
    net = greedy_delta_net(medium_geometric, 0.2)
    report = verify_net(medium_geometric, net)
    assert report.passed
    assert report.size == len(net.members)
    assert report.to_json_dict()["schema"] == "net_report/v1"


def test_verify_net_covering_witnesses():
    g = generate_graph("path", 10, seed=0, weight_range=(1.0, 1.0))
    report = verify_net(g, DeltaNet(2.0, (0,)))
    assert not report.passed
    bad = {v for v, _ in report.covering_violations}
    assert bad == {3, 4, 5, 6, 7, 8, 9}
    for v, d in report.covering_violations:
        assert d == float(v)


def test_verify_net_keeps_the_first_covering_witnesses_past_the_cap():
    g = generate_graph("path", 300, seed=0, weight_range=(1.0, 1.0))
    report = verify_net(g, DeltaNet(2.0, (0,)))
    # vertices 3..299 are uncovered; the report keeps the first ones in vertex order
    assert report.covering_violations == tuple((v, float(v)) for v in range(3, 3 + WITNESS_CAP))


def test_verify_net_packing_witnesses():
    g = generate_graph("path", 10, seed=0, weight_range=(1.0, 1.0))
    report = verify_net(g, DeltaNet(2.0, tuple(range(10))))
    assert not report.packing_violations == ()
    assert all(d <= 2.0 for _, _, d in report.packing_violations)
    assert (0, 1, 1.0) in report.packing_violations


def test_verify_net_packing_is_exact_at_delta():
    g = generate_graph("path", 4, seed=0, weight_range=(1.0, 1.0))
    # members exactly delta apart violate packing (strict > required) ...
    report = verify_net(g, DeltaNet(2.0, (0, 2)))
    assert report.packing_violations == ((0, 2, 2.0),)
    # ... while anything strictly beyond passes
    report = verify_net(g, DeltaNet(2.0, (0, 3)))
    assert report.packing_violations == ()


def test_verify_net_mst_side_condition():
    g = generate_graph("path", 5, seed=0, weight_range=(1.0, 1.0))  # MST weight 4
    report = verify_net(g, DeltaNet(10.0, (0, 4)))
    assert not report.mst_bound_ok  # 2 members * delta 10 > 2 * 4
    report = verify_net(g, DeltaNet(1.5, (0, 2, 4)))
    assert report.mst_bound_ok  # 4.5 <= 8


def test_verify_net_brute_cross_validation():
    from . import oracles

    g = generate_graph("erdos_renyi", 12, seed=3, p=0.4)
    rows = oracles.all_pairs_via_bf(g)
    for delta in (0.5, 1.0, 2.0):
        for members in [(0,), (0, 5), tuple(range(0, 12, 3))]:
            report = verify_net(g, DeltaNet(delta, members))
            cov = {v for v in range(12) if min(rows[v][c] for c in members) > delta}
            assert {v for v, _ in report.covering_violations} == cov
            pack = {
                (a, b)
                for a in members
                for b in members
                if a < b and rows[a][b] <= delta
            }
            assert {(a, b) for a, b, _ in report.packing_violations} == pack


@pytest.mark.parametrize("members", [(0, 6), (-1,), (2, -1)], ids=["n", "minus-one", "minus-one-last"])
def test_verify_net_rejects_a_member_outside_the_graph(members):
    # a member of n used to index past the tables, and -1 to scan from vertex n - 1
    g = generate_graph("path", 6, seed=0)
    with pytest.raises(ValueError, match=rf"net member {members[-1]} outside 0\.\.5"):
        verify_net(g, DeltaNet(1.0, members))


# ---------------------------------------------------------------- slt


def test_verify_slt_flags_deep_tree():
    n = 10
    cyc = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    g = WeightedGraph(n, cyc)
    spine = tuple((i, i + 1, 1.0) for i in range(n - 1))
    deep = SpanningTree(n, spine, float(n - 1))
    report = verify_slt(g, deep, 0, eps=0.1)
    assert not report.passed
    assert report.worst_root_stretch == pytest.approx(9.0)
    assert report.violations  # vertex 9 at least
    assert report.weight_ratio == pytest.approx(1.0)


def test_verify_slt_keeps_the_first_violations_past_the_cap():
    n = 400
    cyc = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    g = WeightedGraph(n, cyc)
    deep = SpanningTree(n, tuple((i, i + 1, 1.0) for i in range(n - 1)), float(n - 1))
    report = verify_slt(g, deep, 0, eps=0.1)
    # vertex v sits at tree depth v and graph distance n - v past the middle;
    # 190 of them break the bound, and the worst stretch still sees the last
    violators = [v for v in range(1, n) if v > 1.1 * (n - v)]
    assert len(violators) > WITNESS_CAP
    assert report.violations == tuple((v, float(v), float(n - v)) for v in violators[:WITNESS_CAP])
    assert report.worst_root_stretch == float(n - 1)


def test_verify_slt_rejects_foreign_edges():
    g = generate_graph("path", 6, seed=0)
    fake = SpanningTree(6, ((0, 5, 1.0),) + g.edges[:4], 5.0)
    with pytest.raises(SpannerError, match="not a graph edge"):
        verify_slt(g, fake, 0, eps=0.5)


def test_verify_slt_rejects_wrong_weight():
    g = generate_graph("path", 6, seed=0)
    u, v, w = g.edges[0]
    fake = SpanningTree(6, ((u, v, w * 2),) + g.edges[1:], 0.0)
    with pytest.raises(SpannerError, match="not a graph edge"):
        verify_slt(g, fake, 0, eps=0.5)


@pytest.mark.parametrize(
    "root, eps, message",
    [(-1, 0.5, r"root -1 outside 0\.\.5"), (6, 0.5, r"root 6 outside 0\.\.5"), (0, 0.0, "eps > 0"), (0, -1.0, "eps > 0"), (0, math.nan, "eps > 0")],
)
def test_verify_slt_rejects_a_bad_root_or_eps(root, eps, message):
    # a root of -1 used to divide by the zero distance of vertex n - 1, a root
    # of n to index past the tables, and an eps of 0 to divide by zero
    g = generate_graph("path", 6, seed=0)
    with pytest.raises(ValueError, match=message):
        verify_slt(g, mst(g), root, eps)


def test_verify_slt_weight_ratio_gate(medium_geometric):
    # a legitimate SLT passes at its own eps but a near-zero eps makes alpha
    # unreachable for any tree that is not the exact SPT
    tree = slt_forest(medium_geometric, (0,), 0.3)
    assert verify_slt(medium_geometric, tree, 0, 0.3).passed
    report = verify_slt(medium_geometric, tree, 0, 1e-12)
    assert report.gamma > 1e11


# ---------------------------------------------------------------- lemma suite


@pytest.fixture(scope="module")
def geo_sp(medium_geometric):
    return build_spanner(medium_geometric, eps=0.05, k=2, seed=1)


@pytest.fixture(scope="module")
def path_sp():
    g = generate_graph("path", 300, seed=3)
    return build_spanner(g, eps=0.09, k=2, seed=3)


LEMMAS = ("representative", "distance_in_bunch", "half_bunch_containment", "paths_intersect")


def test_lemma_suite_passes_on_geometric(geo_sp, medium_geometric):
    report = verify_lemma_suite(medium_geometric, geo_sp)
    assert report.passed
    assert tuple(r.name for r in report.results) == LEMMAS
    for r in report.results:
        assert r.checked > 0
        assert r.witnesses == ()
    assert report.to_json_dict()["schema"] == "lemma_suite/v1"


def test_lemma_suite_passes_with_rep_routing(path_sp):
    report = verify_lemma_suite(path_sp.host, path_sp)
    assert report.passed
    assert any(rec.scale >= 0 for rec in path_sp.internals.records)


def test_lemma_result_accessor(geo_sp, medium_geometric):
    report = verify_lemma_suite(medium_geometric, geo_sp)
    assert report.result("representative").passed
    with pytest.raises(KeyError):
        report.result("no_such_claim")


def test_lemma_suite_catches_severed_bunch_path(path_sp):
    # drop every edge of one recorded connection path: the bunch distance
    # guarantee for that (center, member) pair must now fail
    rec = max(path_sp.internals.records, key=lambda r: len(r.path))
    assert len(rec.path) >= 3
    severed = set()
    for a, b in zip(rec.path, rec.path[1:]):
        severed.add((a, b) if a < b else (b, a))
    broken = dataclasses.replace(
        path_sp, phase_tag={e: tag for e, tag in path_sp.phase_tag.items() if e not in severed}
    )
    report = verify_lemma_suite(path_sp.host, broken)
    bunch = report.result("distance_in_bunch")
    assert not bunch.passed
    assert any(u == rec.center for u, *_ in bunch.witnesses)
    # on a path H0 holds every edge, so the severed edges are H0 edges and
    # the representative distances, measured inside H, break too
    assert severed <= path_sp.internals.hierarchy.h0_edges
    assert not report.result("representative").passed
    # containment is about graph distances only
    assert report.result("half_bunch_containment").passed


@pytest.mark.parametrize(
    "family, n", [("geometric_unit_square", 512), ("erdos_renyi", 256), ("grid", 256)]
)
def test_bare_mst_fails_representative(family, n):
    # a bare MST passes verify_stretch at these sizes; the representative
    # check must see that it lacks H0 edges
    g = generate_graph(family, n, seed=0)
    sp = build_spanner(g, eps=0.05, k=2, seed=0)
    tree = {(min(u, v), max(u, v)) for u, v, _ in mst(g).edges}
    assert not sp.internals.hierarchy.h0_edges <= tree
    bare = dataclasses.replace(sp, phase_tag={e: PHASE_H0 for e in tree})
    rep = verify_lemma_suite(g, bare).result("representative")
    assert not rep.passed
    assert len(rep.witnesses) == WITNESS_CAP


def test_lemma_suite_needs_internals(medium_geometric):
    sp = build_spanner(medium_geometric, eps=0.05, k=2, seed=1, keep_internals=False)
    with pytest.raises(SpannerError, match="internals"):
        verify_lemma_suite(medium_geometric, sp)


def test_lemma_suite_rejects_wmax():
    edges = [(0, i, 1.0) for i in range(1, 15)] + [(0, 15, 600.0)]
    g = WeightedGraph(16, edges)
    sp = build_wmax_spanner(g, eps=0.5)
    with pytest.raises(SpannerError, match="internals"):
        verify_lemma_suite(g, sp)


# ---------------------------------------------------------------- report JSON

REPORT_SCHEMAS = {
    StretchReport: "stretch_report/v1",
    LightnessReport: "lightness_report/v1",
    NetReport: "net_report/v1",
    SltReport: "slt_report/v1",
    LemmaResult: None,
    LemmaSuiteReport: "lemma_suite/v1",
}


@pytest.fixture(scope="module")
def one_report_of_each_type(medium_geometric):
    g = medium_geometric
    sp = build_spanner(g, eps=0.05, k=2, seed=0)
    suite = verify_lemma_suite(g, sp)
    reports = [
        verify_stretch(g, sp),
        verify_lightness(g, sp),
        verify_net(g, greedy_delta_net(g, 0.2)),
        verify_slt(g, slt_forest(g, (0,), 0.5), 0, 0.5),
        suite.results[0],
        suite,
    ]
    return {type(r): r for r in reports}


@pytest.mark.parametrize("report_type", sorted(REPORT_SCHEMAS, key=lambda t: t.__name__), ids=lambda t: t.__name__)
def test_report_json_keys_are_its_fields_passed_and_schema(one_report_of_each_type, report_type):
    report = one_report_of_each_type[report_type]
    payload = report.to_json_dict()
    schema = REPORT_SCHEMAS[report_type]
    keys = {f.name for f in dataclasses.fields(report)} | {"passed"} | ({"schema"} if schema else set())
    assert set(payload) == keys
    assert payload.get("schema") == schema
    assert payload["passed"] is report.passed


def test_lemma_suite_json_nests_each_result_with_its_passed():
    g = generate_graph("path", 60, seed=0)
    sp = build_spanner(g, eps=0.05, k=2, seed=0)
    bare = dataclasses.replace(sp, phase_tag={e: PHASE_H0 for e in list(sp.phase_tag)[::2]})
    suite = verify_lemma_suite(g, bare)
    payload = suite.to_json_dict()
    assert payload["passed"] is False
    assert payload["results"] == [r.to_json_dict() for r in suite.results]
    assert [r["passed"] for r in payload["results"]] == [r.passed for r in suite.results]
    assert all(type(w) is list for r in payload["results"] for w in r["witnesses"])
