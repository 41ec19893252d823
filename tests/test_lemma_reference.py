"""verify_lemma_suite against its full-scan reference, on real and tampered builds.

The suite answers every claim with scans truncated to the radius the claim
names; tests/oracles.py replays the same four checks with full scans. Both
must agree to the byte, witnesses and fact counts included, whether the
internals are genuine or tampered so that a check fails.
"""
import dataclasses
from collections import Counter

import pytest

from lightspanner import verify
from lightspanner.generate import generate_graph
from lightspanner.graph import adjacency_from_edges, distances, scan
from lightspanner.spanner import PHASE_P2_DIRECT, PHASE_P2_REP, PHASE_P2_TOP, build_spanner
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
