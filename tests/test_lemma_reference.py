"""verify_lemma_suite against its full-scan reference, on real and tampered builds.

The suite answers every claim with the records' path sums where they
certify it and with scans truncated to the radius the claim names where
they do not; tests/oracles.py replays the same four checks with full scans.
Both must agree to the byte, witnesses and fact counts included, whether the
internals are genuine or tampered so that a check fails.
"""
import dataclasses
import hashlib
import json
import math
import random
from collections import Counter

import pytest

from lightspanner import verify
from lightspanner.generate import generate_graph
from lightspanner.graph import adjacency_from_edges, distances, scan
from lightspanner.spanner import PHASE_H0, PHASE_P2_DIRECT, PHASE_P2_REP, PHASE_P2_TOP, build_spanner
from lightspanner.trees import mst
from lightspanner.verify import WITNESS_CAP, verify_lemma_suite, verify_stretch

from . import oracles
from .conftest import random_connected_graph
from .oracles import (
    lemma_suite_reference,
    path_sums_reference,
    pivot_ball_keys_reference,
    uncertified_pivot_ball_keys_reference,
)

BUILDS = {
    "path": lambda: build_spanner(generate_graph("path", 200, seed=3), eps=0.09, k=2, seed=3),
    "grid": lambda: build_spanner(generate_graph("grid", 144, seed=1), eps=0.05, k=2, seed=1),
    "gnp": lambda: build_spanner(generate_graph("erdos_renyi", 160, seed=2), eps=0.05, k=2, seed=2),
    "geometric": lambda: build_spanner(
        generate_graph("geometric_unit_square", 200, seed=5), eps=0.05, k=2, seed=5
    ),
    "dyadic": lambda: build_spanner(random_connected_graph(80, 120, seed=7), eps=0.08, k=2, seed=7),
    # with eps this large, scale indices are nonnegative already at short
    # distances, so several bunch members of one center share a representative
    "shared_targets": lambda: build_spanner(
        generate_graph("path", 200, seed=1), eps=0.5, k=2, seed=1, unsafe_eps=True
    ),
}


@pytest.fixture(scope="module", params=sorted(BUILDS))
def built(request):
    return BUILDS[request.param]()


def _suite_and_reference(sp, internals):
    got = verify_lemma_suite(sp.host, dataclasses.replace(sp, internals=internals)).to_json_dict()
    want = lemma_suite_reference(sp, internals).to_json_dict()
    return got, want


def _result(report_dict, name):
    return next(r for r in report_dict["results"] if r["name"] == name)


def test_suite_matches_reference(built):
    got, want = _suite_and_reference(built, built.internals)
    assert got == want
    assert got["passed"]


def test_passing_suite_runs_no_full_scan(built, monkeypatch):
    full_rows = []
    full_scans = []

    def recording_distances(n, adj, sources):
        full_rows.append(tuple(sources))
        return distances(n, adj, sources)

    def recording_scan(n, adj, sources):
        full_scans.append(tuple(sources))
        return scan(n, adj, sources)

    monkeypatch.setattr(verify, "distances", recording_distances)
    monkeypatch.setattr(verify, "scan", recording_scan)
    assert verify_lemma_suite(built.host, built).passed
    assert full_rows == full_scans == []


def _far_vertex_in_h0(internals, v):
    gn = internals.normalized
    wt = gn.weight_of
    h0_adj = adjacency_from_edges(gn.n, [(u, v, wt(u, v)) for u, v in sorted(internals.hierarchy.h0_edges)])
    dist = scan(gn.n, h0_adj, (v,))[0]
    return max(range(gn.n), key=lambda x: (dist[x], -x))


def _with_hierarchy(internals, **changes):
    return dataclasses.replace(
        internals, hierarchy=dataclasses.replace(internals.hierarchy, **changes)
    )


def _with_pivot_dist(internals, level, update):
    sampling = internals.sampling
    rows = list(sampling.pivot_dist)
    row = list(rows[level])
    update(row)
    rows[level] = tuple(row)
    return dataclasses.replace(
        internals, sampling=dataclasses.replace(sampling, pivot_dist=tuple(rows))
    )


def test_rep_pointed_at_far_vertex_fails_representative(built):
    internals = built.internals
    v = built.host.n // 2
    far = _far_vertex_in_h0(internals, v)
    nearest = [list(row) for row in internals.hierarchy.nearest]
    nearest[0][v] = far  # rep(v, 0) is nearest[0][v]
    tampered = _with_hierarchy(internals, nearest=tuple(tuple(row) for row in nearest))
    got, want = _suite_and_reference(built, tampered)
    assert got == want
    witnesses = _result(got, "representative")["witnesses"]
    assert [v, 0, far] in [w[:3] for w in witnesses]


@pytest.mark.parametrize("keep", ["none", "every_other"])
def test_removed_h0_edges_fail_representative(built, keep):
    internals = built.internals
    edges = sorted(internals.hierarchy.h0_edges)
    kept = frozenset() if keep == "none" else frozenset(edges[::2])
    tampered = _with_hierarchy(internals, h0_edges=kept)
    got, want = _suite_and_reference(built, tampered)
    assert got == want
    rep = _result(got, "representative")
    assert not rep["passed"]
    assert rep["checked"] == built.host.n * (internals.hierarchy.i_max + 1)
    if keep == "none":
        assert len(rep["witnesses"]) == WITNESS_CAP


def test_spanner_missing_h0_edges_fails_representative(built):
    # the internals stay genuine; only the spanner loses half of H0
    dropped = set(sorted(built.internals.hierarchy.h0_edges)[::2])
    broken = dataclasses.replace(
        built, phase_tag={e: tag for e, tag in built.phase_tag.items() if e not in dropped}
    )
    got, want = _suite_and_reference(broken, built.internals)
    assert got == want
    assert not _result(got, "representative")["passed"]


def test_spanner_without_phase_two_edges_fails_on_the_reference_witnesses(built):
    # the internals stay genuine; the spanner loses every edge phase 2 tagged
    phase_two = {PHASE_P2_REP, PHASE_P2_DIRECT, PHASE_P2_TOP}
    broken = dataclasses.replace(
        built, phase_tag={e: tag for e, tag in built.phase_tag.items() if tag not in phase_two}
    )
    got, want = _suite_and_reference(broken, built.internals)
    assert got == want
    if broken.size < built.size:
        assert not _result(got, "distance_in_bunch")["passed"]
    # the whole-graph check, whose additive bound no build this small can
    # exceed, reads the same rows and reports what the full-scan reference does
    stretch = verify_stretch(broken.host, broken, mode="sampled", sample_size=16, seed=1)
    assert stretch.to_json_dict() == oracles.stretch_reference(
        broken.host, broken, mode="sampled", sample_size=16, seed=1
    ).to_json_dict()


def test_shrunken_star_pivot_fails_half_bunch_containment(built):
    internals = built.internals
    k = internals.sampling.k
    groups = {}
    for r in internals.records:
        if r.center_level < k:
            groups.setdefault((r.center_level, r.scale, r.target), set()).add(
                (r.center, r.dist_target)
            )
    level, centers = next(
        (key[0], cs) for key, cs in sorted(groups.items()) if len({c for c, _ in cs}) >= 2
    )
    star = max(centers, key=lambda cd: (cd[1], -cd[0]))[0]

    def shrink(row):
        row[star] *= 1e-3

    tampered = _with_pivot_dist(internals, level + 1, shrink)
    got, want = _suite_and_reference(built, tampered)
    assert got == want
    witnesses = _result(got, "half_bunch_containment")["witnesses"]
    assert witnesses and all(w[3] == star for w in witnesses)


def _shrunken_level_one_pivots(internals, factor):
    def shrink(row):
        row[:] = [d * factor for d in row]

    return _with_pivot_dist(internals, 1, shrink)


def test_shrunken_level_zero_pivots_fail_paths_intersect(built):
    tampered = _shrunken_level_one_pivots(built.internals, 0.25)
    got, want = _suite_and_reference(built, tampered)
    assert got == want
    assert not _result(got, "paths_intersect")["passed"]


def test_records_sharing_center_and_target_are_never_paired():
    sp = BUILDS["shared_targets"]()
    internals = sp.internals
    keys = Counter(
        (r.center, r.target) for r in internals.records if r.center_level < internals.sampling.k
    )
    assert max(keys.values()) >= 2  # the skip has something to skip
    got = verify_lemma_suite(sp.host, sp).result("paths_intersect")
    assert got == lemma_suite_reference(sp).result("paths_intersect")
    assert got.passed


def test_paths_intersect_witnesses_past_the_cap_match_reference(monkeypatch):
    sp = BUILDS["geometric"]()
    tampered = _shrunken_level_one_pivots(sp.internals, 1e-3)
    got = verify_lemma_suite(sp.host, dataclasses.replace(sp, internals=tampered)).result("paths_intersect")
    want = lemma_suite_reference(sp, tampered).result("paths_intersect")
    assert got == want
    assert len(got.witnesses) == WITNESS_CAP
    monkeypatch.setattr(oracles, "WITNESS_CAP", 10**9)
    uncapped = lemma_suite_reference(sp, tampered).result("paths_intersect")
    assert len(uncapped.witnesses) > WITNESS_CAP
    assert uncapped.witnesses[:WITNESS_CAP] == got.witnesses


def _scanned_pivot_balls(monkeypatch):
    """Record (level, center) for every pivot ball the suite scans, in order."""
    scanned = []
    pivot_ball = verify._pivot_ball

    def recording(balls, gn, sampling, level, center):
        scanned.append((level, center))
        return pivot_ball(balls, gn, sampling, level, center)

    monkeypatch.setattr(verify, "_pivot_ball", recording)
    return scanned


@pytest.mark.parametrize("shrink", [1.0, 0.25])
def test_suite_scans_the_pivot_balls_the_lazy_order_asks_for(built, monkeypatch, shrink):
    # of the balls the pair-by-pair rule asks for, the suite scans only those
    # the records' path sums leave uncertified: none on a genuine build
    internals = _shrunken_level_one_pivots(built.internals, shrink)
    got, keys = _paths_intersect_and_balls(built, internals, monkeypatch)
    _assert_scans_the_uncertified_balls(keys, internals, got)
    assert uncertified_pivot_ball_keys_reference(internals) <= pivot_ball_keys_reference(internals)
    if shrink == 1.0:
        assert keys == set()


def _shrunken_pivots_of_some_centers(internals, share, seed=0):
    """Level-1 and level-2 pivot distances shrunk 1000-fold for a seeded
    share of the centers, so some shared vertices certify and others fall
    back to the pair-by-pair rule."""
    rng = random.Random(seed)

    def shrink(row):
        row[:] = [d * 1e-3 if rng.random() < share else d for d in row]

    for level in (1, 2):
        internals = _with_pivot_dist(internals, level, shrink)
    return internals


def _paths_intersect_and_balls(sp, internals, monkeypatch):
    scanned = _scanned_pivot_balls(monkeypatch)
    got = verify_lemma_suite(sp.host, dataclasses.replace(sp, internals=internals)).result("paths_intersect")
    return got, set(scanned)


def _assert_scans_the_uncertified_balls(keys, internals, paths_intersect):
    """The suite scans the pivot balls the sums leave uncertified. Once
    paths-intersect holds WITNESS_CAP failing pairs it tests no pair above
    them, so a run that reaches the cap scans only some of those balls."""
    want = uncertified_pivot_ball_keys_reference(internals)
    if len(paths_intersect.witnesses) < WITNESS_CAP:
        assert keys == want
    else:
        assert keys <= want


@pytest.mark.parametrize("share", [0.02, 0.1, 0.5])
def test_partly_shrunken_pivots_match_the_pair_by_pair_reference(built, share, monkeypatch):
    tampered = _shrunken_pivots_of_some_centers(built.internals, share)
    got, keys = _paths_intersect_and_balls(built, tampered, monkeypatch)
    assert got == lemma_suite_reference(built, tampered).result("paths_intersect")
    _assert_scans_the_uncertified_balls(keys, tampered, got)


@pytest.mark.parametrize("share, capped", [(0.02, False), (0.1, True)])
def test_partly_shrunken_pivots_scan_only_some_of_the_balls_the_rule_asks_for(monkeypatch, share, capped):
    # on this build a 2% share leaves witnesses below the cap and a 10%
    # share reaches it; either way the sums certify some of the centers
    sp = BUILDS["geometric"]()
    tampered = _shrunken_pivots_of_some_centers(sp.internals, share)
    got, keys = _paths_intersect_and_balls(sp, tampered, monkeypatch)
    assert got == lemma_suite_reference(sp, tampered).result("paths_intersect")
    _assert_scans_the_uncertified_balls(keys, tampered, got)
    assert 0 < len(keys) < len(pivot_ball_keys_reference(tampered))
    assert 0 < len(got.witnesses) <= WITNESS_CAP
    assert (len(got.witnesses) == WITNESS_CAP) == capped
    # past the cap the pairs left untested need some of those balls
    assert (keys != uncertified_pivot_ball_keys_reference(tampered)) == capped


def _first_meeting(internals, level):
    """For each pair a < b of the level's records whose paths share a
    vertex, the place of the first such vertex in the order the check walks
    the vertices: by first visit along the records' paths, in record order."""
    paths = [set(r.path) for r in internals.records if r.center_level == level]
    place = {}
    for r in internals.records:
        if r.center_level == level:
            for x in r.path:
                place.setdefault(x, len(place))
    return {
        (a, b): min(place[x] for x in paths[a] & paths[b])
        for a in range(len(paths))
        for b in range(a + 1, len(paths))
        if paths[a] & paths[b]
    }


@pytest.mark.parametrize(
    "family, variant",
    [("geometric", "some_centers_0.1"), ("path", "some_centers_0.1"), ("path", "level_one_x0.25")],
)
def test_a_small_witness_cap_keeps_the_first_failing_pairs_in_pair_order(monkeypatch, family, variant):
    # the check meets the failing pairs vertex by vertex, out of (a, b)
    # order, so the pairs it keeps are trimmed to the smallest many times
    sp = BUILDS[family]()
    tampered = PIVOT_VARIANTS[variant](sp.internals)
    monkeypatch.setattr(oracles, "WITNESS_CAP", 10**9)
    want = lemma_suite_reference(sp, tampered).result("paths_intersect").witnesses
    recs = [r for r in tampered.records if r.center_level == 0]
    index = {(r.center, r.target): i for i, r in enumerate(recs)}
    assert len(index) == len(recs) and want[0][0] == 0
    failing = [(index[tuple(w[1:3])], index[tuple(w[3:5])]) for w in want if w[0] == 0]
    meeting = _first_meeting(tampered, 0)
    assert min(meeting[pair] for pair in failing[3:]) < max(meeting[pair] for pair in failing[:3])
    monkeypatch.setattr(verify, "WITNESS_CAP", 3)
    got = verify_lemma_suite(sp.host, dataclasses.replace(sp, internals=tampered)).result("paths_intersect")
    assert got.witnesses == want[:3]


def _own_target_outside_the_ball(internals):
    """Internals where one center's pivot radius lies between its own target
    and every endpoint of the records after it at a shared vertex, all of
    another (center, target): the subset test there fails on the target alone."""
    gn = internals.normalized
    for level in range(internals.sampling.k):
        recs = [r for r in internals.records if r.center_level == level]
        on_vertex = {}
        for i, r in enumerate(recs):
            for w in r.path:
                on_vertex.setdefault(w, []).append(i)
        for through in on_vertex.values():
            order = sorted(through, key=lambda i: (-recs[i].dist_target, i))
            for pos, i in enumerate(order):
                r, after = recs[i], [recs[j] for j in order[pos + 1 :]]
                if not after or any((s.center, s.target) == (r.center, r.target) for s in after):
                    continue
                row = distances(gn.n, gn.adj, (r.center,))
                far = max(row[p] for s in after for p in (s.center, s.target))
                if far < row[r.target]:

                    def update(pivots, c=r.center, radius=(far + row[r.target]) / 2):
                        pivots[c] = radius

                    return _with_pivot_dist(internals, level + 1, update), (level, r.center)
    raise AssertionError("no record's own target is its farthest point")


def test_a_pivot_ball_missing_only_its_own_target_falls_back(built, monkeypatch):
    # the record's own path is longer than its pivot distance, so its bound
    # cannot certify it and its ball decides
    tampered, ball = _own_target_outside_the_ball(built.internals)
    got, keys = _paths_intersect_and_balls(built, tampered, monkeypatch)
    assert got == lemma_suite_reference(built, tampered).result("paths_intersect")
    assert keys == uncertified_pivot_ball_keys_reference(tampered)
    assert ball in keys


def test_records_of_one_key_ask_for_no_ball_of_their_own(monkeypatch):
    # two records of center c with one target t, and the record of another
    # center reaching t from farther at the same scale, off c's paths: the
    # pair rule asks only for the other center's ball, since the first
    # test passes there, and c's records meet only their own key at c
    sp = BUILDS["shared_targets"]()
    recs = [r for r in sp.internals.records if r.center_level < sp.internals.sampling.k]
    by_key = {}
    for r in recs:
        by_key.setdefault((r.center, r.target), []).append(r)
    same, other = next(
        (same, r)
        for same in by_key.values()
        if len(same) >= 2
        for r in recs
        if r.center != same[0].center
        and (r.center_level, r.scale, r.target) == (same[0].center_level, same[0].scale, same[0].target)
        and r.dist_target > same[0].dist_target
        and same[0].center not in r.path
    )
    tampered = dataclasses.replace(sp.internals, records=(*same, other))
    got, keys = _paths_intersect_and_balls(sp, tampered, monkeypatch)
    assert got == lemma_suite_reference(sp, tampered).result("paths_intersect")
    # the paths' sums certify even the other center, so no ball is scanned
    assert keys == uncertified_pivot_ball_keys_reference(tampered) == set()
    assert pivot_ball_keys_reference(tampered) == {(other.center_level, other.center)}


def test_bare_mst_spanner_keeps_the_first_distance_in_bunch_witnesses(monkeypatch):
    # the internals stay genuine; the spanner is only the graph's MST, which
    # misses far more bunch distances than the report keeps
    sp = BUILDS["geometric"]()
    tree = {(min(u, v), max(u, v)) for u, v, _ in mst(sp.host).edges}
    bare = dataclasses.replace(sp, phase_tag={e: PHASE_H0 for e in tree})
    got = verify_lemma_suite(bare.host, bare).result("distance_in_bunch")
    want = lemma_suite_reference(bare, sp.internals).result("distance_in_bunch")
    assert got == want
    assert len(got.witnesses) == WITNESS_CAP
    monkeypatch.setattr(oracles, "WITNESS_CAP", 10**9)
    uncapped = lemma_suite_reference(bare, sp.internals).result("distance_in_bunch")
    assert len(uncapped.witnesses) > WITNESS_CAP
    assert uncapped.witnesses[:WITNESS_CAP] == got.witnesses
    assert uncapped.checked == got.checked


# ---------------------------------------------------------------------------
# what the records' path sums may certify


def _records_below_top(internals):
    k = internals.sampling.k
    return [i for i, r in enumerate(internals.records) if r.center_level < k]


def _assert_never_certified(sp, monkeypatch, retrace):
    """Give the first record below the top level with a step the path that
    retrace(record) returns, and check that the suite neither certifies it
    nor differs from the reference."""
    internals = sp.internals
    gn = internals.normalized
    records = list(internals.records)
    i = next(i for i in _records_below_top(internals) if len(records[i].path) >= 2)
    records[i] = dataclasses.replace(records[i], path=retrace(records[i]))
    tampered = dataclasses.replace(internals, records=tuple(records))
    assert path_sums_reference(gn, records[i]) is None
    sums = verify._path_sums(gn, tampered.records)
    positions = range(sums.start[i], sums.start[i + 1])
    assert sums.total[i] == math.inf and all(sums.pre[j] == sums.suf[j] == math.inf for j in positions)
    scanned = _scanned_pivot_balls(monkeypatch)
    got, want = _suite_and_reference(sp, tampered)
    assert got == want
    # the genuine records certify everything, so every scan is the tampered record's doing
    assert set(scanned) == uncertified_pivot_ball_keys_reference(tampered) != set()


def test_a_path_through_a_non_edge_is_never_certified(built, monkeypatch):
    # the path takes a detour through a vertex z that shares no edge with its center
    gn = built.internals.normalized

    def detour(r):
        z = next(z for z in range(gn.n) if z not in (r.center, r.target) and not gn.has_edge(r.center, z))
        return (r.center, z, *r.path[1:])

    _assert_never_certified(built, monkeypatch, detour)


def test_a_path_short_of_its_target_is_never_certified(built, monkeypatch):
    # every step is an edge, but the path stops one vertex before its target
    _assert_never_certified(built, monkeypatch, lambda r: r.path[:-1])


def _ball_sources(monkeypatch, picks):
    """Record the source of every truncated scan the suite runs on rows that
    ``subgraph_adjacency`` builds from an edge set ``picks`` accepts."""
    picked, sources = [], []
    subgraph_adjacency = verify.subgraph_adjacency
    ball = verify.DistanceBalls.ball

    def recording_rows(adj, pairs):
        rows = subgraph_adjacency(adj, pairs)
        if picks(pairs):
            picked.append(rows)
        return rows

    def recording_ball(self, adj, source, radius, targets=None):
        if any(adj is rows for rows in picked):
            sources.append(source)
        return ball(self, adj, source, radius, targets)

    monkeypatch.setattr(verify, "subgraph_adjacency", recording_rows)
    monkeypatch.setattr(verify.DistanceBalls, "ball", recording_ball)
    return sources


def _h_ball_sources(monkeypatch):
    """The sources of the suite's scans on H's rows, the rows
    distance_in_bunch builds from the spanner's own edge set."""
    return _ball_sources(monkeypatch, lambda pairs: type(pairs) is type({}.keys()))


def test_the_representative_check_scans_each_representative_once(built, monkeypatch):
    h = built.internals.hierarchy
    h0 = h.h0_edges & built.edges
    # H0's rows: the representative check's edge set, not the spanner's own
    sources = _ball_sources(monkeypatch, lambda pairs: type(pairs) is not type({}.keys()) and pairs == h0)
    assert verify_lemma_suite(built.host, built).passed
    # a vertex is at distance 0 from itself, so one that represents only itself gets no ball
    reps = {h.rep(v, i) for v in range(built.host.n) for i in range(h.i_max + 1) if h.rep(v, i) != v}
    assert sorted(sources) == sorted(reps)


def test_a_path_through_an_edge_deleted_from_h_is_never_certified(built, monkeypatch):
    # the internals stay genuine; the spanner loses the last edge of a direct
    # record whose center the records certify, so a scan on H must decide
    internals = built.internals
    sources = _h_ball_sources(monkeypatch)
    verify_lemma_suite(built.host, built)
    r = next(
        internals.records[i]
        for i in _records_below_top(internals)
        if internals.records[i].target == internals.records[i].member
        and len(internals.records[i].path) >= 2
        and internals.records[i].center not in sources
    )
    a, b = r.path[-2:]
    broken = dataclasses.replace(
        built, phase_tag={e: tag for e, tag in built.phase_tag.items() if e != (min(a, b), max(a, b))}
    )
    assert len(broken.phase_tag) == len(built.phase_tag) - 1
    sources.clear()
    got, want = _suite_and_reference(broken, internals)
    assert got == want
    assert r.center in sources


def _star_bound(internals):
    """A group below the top level with two centers or more whose star heads
    no other group of its level: (level, star, bound), where bound is the
    largest w(P_star) + w(P_u) over the group's centers u, each path the
    lightest of its center's records in the group, summed by weight_of."""
    gn = internals.normalized
    records = internals.records
    groups, stars = {}, Counter()
    for i in _records_below_top(internals):
        r = records[i]
        groups.setdefault((r.center_level, r.scale, r.target), []).append(r)
    star_of = {
        key: max(recs, key=lambda r: (r.dist_target, -r.center)).center for key, recs in groups.items()
    }
    stars.update((key[0], star) for key, star in star_of.items())
    for key, recs in sorted(groups.items()):
        star = star_of[key]
        if len({r.center for r in recs}) < 2 or stars[key[0], star] > 1:
            continue
        lightest = {}
        for r in recs:
            w = path_sums_reference(gn, r)[0][-1]
            lightest[r.center] = min(w, lightest.get(r.center, math.inf))
        return key[0], star, max(lightest[star] + w for w in lightest.values())
    raise AssertionError("no star heads a single group of two centers")


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_a_star_pivot_at_the_path_bound_matches_reference(built, monkeypatch, ulps):
    # only a bound strictly below the pivot distance certifies; at it, and
    # one ulp below, the star's ball decides
    level, star, bound = _star_bound(built.internals)
    pd = bound if ulps == 0 else math.nextafter(bound, math.copysign(math.inf, ulps))

    def update(pivots):
        pivots[star] = pd

    tampered = _with_pivot_dist(built.internals, level + 1, update)
    got, want = _suite_and_reference(built, tampered)
    assert got == want
    scanned = _scanned_pivot_balls(monkeypatch)
    sums = verify._path_sums(tampered.normalized, tampered.records)
    half = verify._check_half_bunch_containment(tampered, sums)
    assert half.to_json_dict() == _result(want, "half_bunch_containment")
    assert ((level, star) in scanned) == (ulps <= 0)


def _paths_intersect_bound(internals, level):
    """The least center c the paths-intersect check tests at the level, and
    the largest bound it tests for c: over c's records r and the vertices x
    where a record after r, in the rule's order, has another (center,
    target), the larger of w(P_r) and p_r(x) + max(p_s(x), q_s(x)) over the
    records s after r, summed by weight_of."""
    gn = internals.normalized
    records = [r for r in internals.records if r.center_level == level]
    sums = [path_sums_reference(gn, r) for r in records]
    on_vertex = {}
    for i, r in enumerate(records):
        for x in r.path:
            on_vertex.setdefault(x, []).append(i)
    bounds = {}
    for x, through in on_vertex.items():
        order = sorted(through, key=lambda i: (-records[i].dist_target, i))
        for pos, i in enumerate(order):
            r, after = records[i], order[pos + 1 :]
            if all((records[s].center, records[s].target) == (r.center, r.target) for s in after):
                continue
            prefix, _ = sums[i]
            far = max(max(sums[s][0][records[s].path.index(x)], sums[s][1][records[s].path.index(x)]) for s in after)
            bounds[r.center] = max(bounds.get(r.center, 0.0), prefix[-1], prefix[r.path.index(x)] + far)
    c = min(bounds)
    return c, bounds[c]


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_a_center_pivot_at_the_paths_intersect_bound_matches_reference(built, monkeypatch, ulps):
    # as for the star: at the bound, and one ulp below, the center's ball decides
    c, bound = _paths_intersect_bound(built.internals, 0)
    pd = bound if ulps == 0 else math.nextafter(bound, math.copysign(math.inf, ulps))

    def update(pivots):
        pivots[c] = pd

    tampered = _with_pivot_dist(built.internals, 1, update)
    got, want = _suite_and_reference(built, tampered)
    assert got == want
    scanned = _scanned_pivot_balls(monkeypatch)
    sums = verify._path_sums(tampered.normalized, tampered.records)
    paths = verify._check_paths_intersect(tampered, sums)
    assert paths.to_json_dict() == _result(want, "paths_intersect")
    assert ((0, c) in scanned) == (ulps <= 0)


# sha256 of verify_lemma_suite(...).to_json_dict(), keys sorted, for each
# build and pivot variant; recorded before the suite certified from path sums
SUITE_SHA256 = {
    ("dyadic", "genuine"): "aeb601cdabba6042708eb5157fb52713f134be8a9ec5517a46eb55b5d298b7b5",
    ("dyadic", "level_one_x0.25"): "708cda394335c6931b74dab6354c234a640fe1717bb22a8196027dfab3a0774f",
    ("dyadic", "some_centers_0.1"): "08592fc8b0fe2290c389b7589938d5f5c09968f15dcb8dfb46b6deb3b3fb5c45",
    ("dyadic", "some_centers_0.5"): "3bc83fce80dd037ba4dd16805d78558cbda5c5c46c2651ce69aab23de544443c",
    ("geometric", "genuine"): "29c931420fbea93664176feb983c64c7be66628175da01de217fddcc345cb71a",
    ("geometric", "level_one_x0.25"): "83224ea4e704ec6be23cd9834672a9a16b89f071c6f4472ea35ba6f4ae296212",
    ("geometric", "some_centers_0.1"): "268897ee49d4fd7f143fa3bbf613c297c1875deb4c4e99dd0d20ebde08f6e5dd",
    ("geometric", "some_centers_0.5"): "5b87558f5bfde703edf047413e3f92b81ef754f4e31cf0a5738b367c2fb5d866",
    ("gnp", "genuine"): "223fe70e35e58490f76010c7416b91a5d0244aa1cdb8e3b658d98250bedafa24",
    ("gnp", "level_one_x0.25"): "8d8363a40772e6a73cd8fb8d372bb3df2c612b66db58e1e952bdd408da055814",
    ("gnp", "some_centers_0.1"): "03cf6ce32de7e879aa0d69917dcd59b7ee4ed0d3d66b88cd4a5b028b0716cd4b",
    ("gnp", "some_centers_0.5"): "1c818e06242e962c773e8d6141e11b04dd6fa4cc0df69f45a0302512e2143ccc",
    ("grid", "genuine"): "9c58f392a38dfb9319063975025ddd26fe0888ff92ff7c09d9a6106bcc38dd68",
    ("grid", "level_one_x0.25"): "d86702dd9ec5c89425351b313811a855315f83e137656a4aeb7dd8c0ba60c1b9",
    ("grid", "some_centers_0.1"): "f52492f2582a0c375782ca6bd36dc9b715575c9c7d0eee020932a5558004f326",
    ("grid", "some_centers_0.5"): "ee327d7fb68d22ba7068cbf7e79748b66313253ac82a6dc8b87c7aadcdfb228d",
    ("path", "genuine"): "ee2ffe0262033cdc635bc766014144d5d4349e61385773e552f4e8a53780f25b",
    ("path", "level_one_x0.25"): "0bc93181e88751ffcff5055d7cb4768b2d7d2cf2fdfc3b655d47a57a060d5ef6",
    ("path", "some_centers_0.1"): "683962a8bb11b5f663ade1afb52b98a1c6a08481861bf1294cf363a0e89660a6",
    ("path", "some_centers_0.5"): "5c00b2a18c7a8a6299f94bdd34aeee5f7b8eb6b023038bfbc86a4f9a12eb9bda",
    ("shared_targets", "genuine"): "c9657674aa4b4f378129b3ceec51fe6bc720ffe19e9edc263f5352eec8132ab1",
    ("shared_targets", "level_one_x0.25"): "23bc3a83ac7d6b33d3035eeec034574ae29a76df7fcd4f510526bc04043374ab",
    ("shared_targets", "some_centers_0.1"): "e3751c6c0c4aa02fb78e5ab10101ae47eb7e771a9e2932565e3f31ff681732f5",
    ("shared_targets", "some_centers_0.5"): "bf14f791c373abb27dee74e3c7f9d66009cf9309e824bdf52440a5b92a953ef6",
}
PIVOT_VARIANTS = {
    "genuine": lambda internals: internals,
    "level_one_x0.25": lambda internals: _shrunken_level_one_pivots(internals, 0.25),
    "some_centers_0.1": lambda internals: _shrunken_pivots_of_some_centers(internals, 0.1),
    "some_centers_0.5": lambda internals: _shrunken_pivots_of_some_centers(internals, 0.5),
}


@pytest.mark.parametrize("family", sorted(BUILDS))
def test_suite_report_bytes_are_pinned(family):
    sp = BUILDS[family]()
    for variant, tamper in PIVOT_VARIANTS.items():
        report = verify_lemma_suite(sp.host, dataclasses.replace(sp, internals=tamper(sp.internals))).to_json_dict()
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == SUITE_SHA256[family, variant], variant
