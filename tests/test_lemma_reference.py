"""verify_lemma_suite against its full-scan reference, on real and tampered builds.

The suite answers every claim with scans truncated to the radius the claim
names; tests/oracles.py replays the same four checks with full scans. Both
must agree to the byte, witnesses and fact counts included, whether the
internals are genuine or tampered so that a check fails.
"""
import dataclasses
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
from .oracles import lemma_suite_reference, pivot_ball_keys_reference

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
    got = verify_lemma_suite(sp.host, sp, internals).to_json_dict()
    want = lemma_suite_reference(sp, internals).to_json_dict()
    return got, want


def _result(report_dict, name):
    return next(r for r in report_dict["results"] if r["name"] == name)


def test_suite_matches_reference(built):
    got, want = _suite_and_reference(built, built.internals)
    assert got == want
    assert got["passed"]


def test_passing_suite_runs_full_scans_only_from_top_level_centers(built, monkeypatch):
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
    top = built.internals.sampling.levels[built.internals.sampling.k]
    assert sorted(full_rows) == sorted((u,) for u in top)
    assert full_scans == []


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
    got = verify_lemma_suite(sp.host, sp, tampered).result("paths_intersect")
    want = lemma_suite_reference(sp, tampered).result("paths_intersect")
    assert got == want
    assert len(got.witnesses) == WITNESS_CAP
    monkeypatch.setattr(oracles, "WITNESS_CAP", 10**9)
    uncapped = lemma_suite_reference(sp, tampered).result("paths_intersect")
    assert len(uncapped.witnesses) > WITNESS_CAP
    assert uncapped.witnesses[:WITNESS_CAP] == got.witnesses


@pytest.mark.parametrize("shrink", [1.0, 0.25])
def test_suite_scans_the_pivot_balls_the_lazy_order_asks_for(built, monkeypatch, shrink):
    internals = _shrunken_level_one_pivots(built.internals, shrink)
    made = []

    class RecordingBalls(verify._PivotBalls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify, "_PivotBalls", RecordingBalls)
    verify_lemma_suite(built.host, built, internals)
    (balls,) = made
    assert set(balls._balls) == pivot_ball_keys_reference(internals)


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


def _count_pair_walks(monkeypatch):
    """Record a for every record a that _check_paths_intersect walks pair by pair."""
    walked = []
    failing_pairs = verify._failing_pairs

    def counting(a, *rest):
        walked.append(a)
        return failing_pairs(a, *rest)

    monkeypatch.setattr(verify, "_failing_pairs", counting)
    return walked


def _paths_intersect_and_balls(sp, internals, monkeypatch):
    made = []

    class RecordingBalls(verify._PivotBalls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify, "_PivotBalls", RecordingBalls)
    got = verify_lemma_suite(sp.host, sp, internals).result("paths_intersect")
    (balls,) = made
    return got, set(balls._balls)


@pytest.mark.parametrize("share", [0.02, 0.1, 0.5])
def test_partly_shrunken_pivots_match_the_pair_by_pair_reference(built, share, monkeypatch):
    tampered = _shrunken_pivots_of_some_centers(built.internals, share)
    got, keys = _paths_intersect_and_balls(built, tampered, monkeypatch)
    assert got == lemma_suite_reference(built, tampered).result("paths_intersect")
    assert keys == pivot_ball_keys_reference(tampered)


def test_partly_shrunken_pivots_fall_back_only_where_the_bulk_test_fails(monkeypatch):
    # on this build a 2% share leaves witnesses below the cap and a 10%
    # share reaches it; either way only some records are walked pair by pair
    sp = BUILDS["geometric"]()
    records = sum(r.center_level < sp.internals.sampling.k for r in sp.internals.records)
    walked = _count_pair_walks(monkeypatch)
    counts = []
    for share in (0.02, 0.1):
        walked.clear()
        tampered = _shrunken_pivots_of_some_centers(sp.internals, share)
        got = verify_lemma_suite(sp.host, sp, tampered).result("paths_intersect")
        assert got == lemma_suite_reference(sp, tampered).result("paths_intersect")
        assert 0 < len(walked) < records
        counts.append(len(got.witnesses))
    assert 0 < counts[0] < WITNESS_CAP == counts[1]


def test_genuine_builds_walk_no_pair_one_at_a_time(built, monkeypatch):
    walked = _count_pair_walks(monkeypatch)
    got = verify_lemma_suite(built.host, built).result("paths_intersect")
    assert got.passed and got == lemma_suite_reference(built).result("paths_intersect")
    assert walked == []


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

                    return _with_pivot_dist(internals, level + 1, update)
    raise AssertionError("no record's own target is its farthest point")


def test_a_pivot_ball_missing_only_its_own_target_falls_back(built, monkeypatch):
    tampered = _own_target_outside_the_ball(built.internals)
    got, keys = _paths_intersect_and_balls(built, tampered, monkeypatch)
    assert got == lemma_suite_reference(built, tampered).result("paths_intersect")
    assert keys == pivot_ball_keys_reference(tampered)


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
    assert keys == pivot_ball_keys_reference(tampered) == {(other.center_level, other.center)}


def test_bare_mst_spanner_keeps_the_first_distance_in_bunch_witnesses(monkeypatch):
    # the internals stay genuine; the spanner is only the graph's MST, which
    # misses far more bunch distances than the report keeps
    sp = BUILDS["geometric"]()
    tree = {(min(u, v), max(u, v)) for u, v, _ in mst(sp.host).edges}
    bare = dataclasses.replace(sp, phase_tag={e: PHASE_H0 for e in tree})
    got = verify_lemma_suite(bare.host, bare, sp.internals).result("distance_in_bunch")
    want = lemma_suite_reference(bare, sp.internals).result("distance_in_bunch")
    assert got == want
    assert len(got.witnesses) == WITNESS_CAP
    monkeypatch.setattr(oracles, "WITNESS_CAP", 10**9)
    uncapped = lemma_suite_reference(bare, sp.internals).result("distance_in_bunch")
    assert len(uncapped.witnesses) > WITNESS_CAP
    assert uncapped.witnesses[:WITNESS_CAP] == got.witnesses
    assert uncapped.checked == got.checked
