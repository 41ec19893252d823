"""Pinned sha256 digests of CLI artifacts on small fixed inputs.

The CLI promises byte-identical artifacts for a fixed (graph, eps, k, seed).
These digests were recorded from a reference build; a change that moves any
byte of a generated graph, a spanner or a report fails here and has to say
why the output changed before it re-records them.

The artifacts do not show every build fact. On the path graphs of the CLI
cases H0 claims every edge before phase 2, so no artifact exposes which
representative a phase-2 connection reached. INTERNAL_GOLDEN pins those
facts directly: the phase-2 records and the lemma-suite report of builds
that route connections through representatives. REPORT_GOLDEN pins the
net and shallow-light-tree reports, which no CLI command writes, and
HIERARCHY_GOLDEN the net hierarchy's levels, nearest-member rows and H0
edges, which no artifact shows whole.
"""
import hashlib
import json
import os

import pytest

from lightspanner.cli import main
from lightspanner.generate import generate_graph
from lightspanner.nets import DeltaNet, greedy_delta_net
from lightspanner.spanner import build_spanner
from lightspanner.trees import mst, slt_forest
from lightspanner.verify import verify_lemma_suite, verify_net, verify_slt

ARTIFACTS = (
    "graph.edge_list",
    "spanner.json",
    "spanner.edge_list",
    "stretch_report.json",
    "lightness_report.json",
)

GOLDEN = {
    "geometric_unit_square-300": {
        "graph.edge_list": "cf3cdfd49c99bceb488c447790cf3ae079bc5398ae1b2215d364d5081c3f0b1e",
        "spanner.json": "a62f875166e06e4d6afdbb0d4d5aa0532e335bf175cd4b560e6217a24ebebd05",
        "spanner.edge_list": "1ca5296e3685820c5d053f6e4c2a854d24bb4f1777ce1ec4ca475513ff70b973",
        "stretch_report.json": "b2a89557150add2d53eef2dc65bc63b347a29696f148f68bba11a325c3e1b36a",
        "lightness_report.json": "7023014963b68a5fb2c38385352fcc2f319d01b37bd154ca06192c4da747fd5d",
    },
    "erdos_renyi-200": {
        "graph.edge_list": "7dd0827048f86b0d99405816552883eb298c138014d0a5b0048e51eeb0873ae8",
        "spanner.json": "e1ba516f7f149605f7b97c85fd60ccc8ade0556e7afa5889f708d79d82ea4ae6",
        "spanner.edge_list": "cad969dbed8752368a3418550bf949284a7a9a5b0da4640d33c8f6553f0a0127",
        "stretch_report.json": "75bcb80ca133b4ff51e9052ecce2236cbb80246e9f23dd8a62444bf9742d291f",
        "lightness_report.json": "23580105989172ffca2520ee838375a375d67b24156d56b0d5d9a86a17993c8a",
    },
    "grid-256": {
        "graph.edge_list": "5888a7d1b820cc35c1c333c7d2d126d5d0fa3cca097fde25a7d87a59a68fae4c",
        "spanner.json": "f86279fa6b4669469c08f0d2f9120bd775800abe6352f1fbfb5901313b479a77",
        "spanner.edge_list": "ba3d8a3563f0537709eec8ec77db027ed4b065db4c6d56f7fe6192e9972b3cfd",
        "stretch_report.json": "df8a6018bf60189748e08f0d837e3d3e2fe7e31dd30b5e6eeb3b4e576b24ba20",
        "lightness_report.json": "51be86a17aeab83d8231f9ba3bb69bdcf52f21ed7fa038894aa75f97ee87d9c3",
    },
    "wmax": {
        "graph.edge_list": "cea46354c57c1c50888bdfca899404a3ef3678929ea666bc681528ea76bef145",
        "spanner.json": "6eff4e8c1ed45822830c734eaa48536b7659be1714cc161d7bfadde0c08ca94b",
        "spanner.edge_list": "a86458e1cf48ef6b76c0624550d126d92d26ea07e2620d8b3d82253d19d8eecf",
        "stretch_report.json": "fe36014fd056e8cf902a33c3ce7aad506083d522d4568fb8ac15c3f646d94c63",
        "lightness_report.json": "76e8387929add7363777ffd2a4b16f2114abbfa549f06100f74194fddf9c20ad",
    },
}


def _digests(out_dir):
    digests = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _verify(graph_path, out_dir):
    spanner = os.path.join(out_dir, "spanner.json")
    assert main(["verify", "--input", graph_path, "--spanner", spanner, "--output-dir", out_dir]) == 0


@pytest.mark.parametrize("family, n", [("geometric_unit_square", 300), ("erdos_renyi", 200), ("grid", 256)])
def test_hierarchical_artifacts_match_golden(tmp_path, family, n):
    out = str(tmp_path)
    assert main(["gen", "--family", family, "--n", str(n), "--seed", "0", "--output-dir", out]) == 0
    graph_path = os.path.join(out, "graph.edge_list")
    build = ["build", "--input", graph_path, "--eps", "0.05", "--k", "2", "--seed", "0"]
    assert main(build + ["--output-dir", out]) == 0
    _verify(graph_path, out)
    assert _digests(out) == GOLDEN[f"{family}-{n}"]


def _heavy_cycle(n):
    """A cycle of light edges plus heavy chords, so build-wmax's precondition holds."""
    lines = [str(n)]
    lines += [f"{i} {(i + 1) % n} {1.0 + (i % 3) / 4}" for i in range(n)]
    lines += [f"{i} {i + n // 2} {300.0 + i}" for i in range(0, n // 2, 5)]
    return "\n".join(lines) + "\n"


def test_wmax_artifacts_match_golden(tmp_path):
    out = str(tmp_path)
    graph_path = os.path.join(out, "graph.edge_list")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(_heavy_cycle(64))
    assert main(["build-wmax", "--input", graph_path, "--eps", "0.05", "--output-dir", out]) == 0
    _verify(graph_path, out)
    assert _digests(out) == GOLDEN["wmax"]


# (family, n, eps, unsafe_eps, build seed) -> (rep-routed records, sha256 of
# the records, of the lemma-suite report, of spanner.json's payload); every
# graph is generated with seed 0 and built with k=2. The two builds with build
# seeds 3 and 5 have three top-level vertices, so they pin the top-level
# connections too.
INTERNAL_GOLDEN = {
    ("path", 200, 0.09, False, 0): (
        17,
        "263e374b4a57001fd8b78523ac9273487a203b4cee7660cb68ffb1e8ab135ce1",
        "ee65919d007f01512257b58239ee17364f3ea8c29a625b30674ba119734780fb",
        "1b6c59447e7470f7e66da00952b97e129f46e35f16b471aaafcab140a70eef6a",
    ),
    ("path", 200, 0.5, True, 0): (
        57,
        "47760eccd8fd7f04e45359e953ded5f60535d3ffb0a5e24b3bff571942a361e6",
        "7bacd13826cb1186679aeb3f9c7d469c2527e3629683048d067b6c4c720be27a",
        "fa90e41a48eac683db16f7b8e37167b1fd71b6bd6ce3d2b4913b5f06cd884e09",
    ),
    ("geometric_unit_square", 300, 0.05, False, 0): (
        0,
        "5073464d8a10da2829fd1179ebb2ce12bda85a08990bd260bf88d7494c3e2ebb",
        "88c52bd4539de3176ca92cf5dfa92509901319be42921151c62e28bc61572d79",
        "0ee86943c99f5986d953433f37e47a5bd89bfbabb5e5b6cb639264cb6b281741",
    ),
    ("path", 200, 0.5, True, 5): (
        6,
        "372621d7fbb326707c0c5e97bdde1341394305f7897748232ff9b52484f62413",
        "bec2d5f44a87836171bbf1f71722200056f585a109fac4bb672261871e6768a2",
        "794e9518df5db29016e19dfd48f405b101ff1108bde279e5cdc67a80eba0d25a",
    ),
    ("geometric_unit_square", 300, 0.05, False, 3): (
        0,
        "5dff4db1bc5d145aca16e2aa938b3bcaa96a39a71ff4c3696a8d9d4ab5375f1c",
        "5f81f9ce1fb2cd51c9095148420929ab73e5220b13dca72409d6ae51297db7ea",
        "9e7613b8744e4aeced7562bc1d243e6dfb56b4b05c2d3584128d33f5d4dac15d",
    ),
}


def _canonical_sha256(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _internal_digests(family, n, eps, unsafe_eps, seed):
    sp = build_spanner(generate_graph(family, n, seed=0), eps, 2, seed, unsafe_eps=unsafe_eps)
    records = [
        [r.center, r.member, r.scale, r.target, r.dist_target, list(r.path)]
        for r in sp.internals.records
    ]
    return (
        sum(r.scale >= 0 for r in sp.internals.records),
        _canonical_sha256(records),
        _canonical_sha256(verify_lemma_suite(sp.host, sp).to_json_dict()),
        _canonical_sha256(sp.to_json_dict()),
    )


@pytest.mark.parametrize("family, n, eps, unsafe_eps, seed", sorted(INTERNAL_GOLDEN))
def test_phase2_records_and_lemma_suite_match_golden(family, n, eps, unsafe_eps, seed):
    key = (family, n, eps, unsafe_eps, seed)
    assert _internal_digests(*key) == INTERNAL_GOLDEN[key]


def test_internal_golden_builds_cover_both_phase2_reaches():
    # phase 2 scans to a bunch radius r <= 4/eps itself and to (1 + eps/2) * r
    # beyond it; the pins above guard both reaches only if their builds take both
    reaches = set()
    for family, n, eps, unsafe_eps, seed in INTERNAL_GOLDEN:
        sampling = build_spanner(generate_graph(family, n, seed=0), eps, 2, seed, unsafe_eps=unsafe_eps).internals.sampling
        for u in range(n):
            i = sampling.level_of[u]
            if i < sampling.k:
                reaches.add(0.5 * (1.0 - eps) * sampling.pivot_dist[i + 1][u] <= 4.0 / eps)
    assert reaches == {True, False}


# sha256 of list(sp.phase_tag.items()) as [u, v, tag] rows, in insertion
# order, for every INTERNAL_GOLDEN build and for the graphs of the
# hierarchical CLI cases (generated with seed 0, built with k=2, seed 0).
# No artifact above shows that order: spanner.json lists its edges sorted,
# and its weights are exact sums (math.fsum), the same in any order. On the
# path graphs H0 claims every edge, so their tables agree.
PHASE_TAG_GOLDEN = {
    ("path", 200, 0.09, False, 0): "f2e31baf3a484c17e40b74c73efaf9d0e0728f521251314dfe73c3bf7ff91223",
    ("path", 200, 0.5, True, 0): "f2e31baf3a484c17e40b74c73efaf9d0e0728f521251314dfe73c3bf7ff91223",
    ("path", 200, 0.5, True, 5): "f2e31baf3a484c17e40b74c73efaf9d0e0728f521251314dfe73c3bf7ff91223",
    ("geometric_unit_square", 300, 0.05, False, 0): "b111f915d0e3789d50cde4795c37c0ed92ac15ccba8f137205c6dc82e12a9143",
    ("geometric_unit_square", 300, 0.05, False, 3): "53f94e6fd7ad7707e88a9aec7008fe663f6b1d2f9b2fca70b7535175936948d9",
    ("erdos_renyi", 200, 0.05, False, 0): "58253ab635f22c31426b14520cd8f949b00e8e1058e8b392158ac8f09f4f5940",
    ("grid", 256, 0.05, False, 0): "7f91824616a9cb4e5d93eb07121c3ad1f5cd3e1f7d27fa57917a44bfc0214dc0",
}


@pytest.mark.parametrize("family, n, eps, unsafe_eps, seed", sorted(PHASE_TAG_GOLDEN))
def test_phase_tag_order_matches_golden(family, n, eps, unsafe_eps, seed):
    sp = build_spanner(generate_graph(family, n, seed=0), eps, 2, seed, unsafe_eps=unsafe_eps, keep_internals=False)
    rows = [[u, v, tag] for (u, v), tag in sp.phase_tag.items()]
    assert _canonical_sha256(rows) == PHASE_TAG_GOLDEN[(family, n, eps, unsafe_eps, seed)]


# sha256 of to_json_dict() for the net and shallow-light-tree reports, one
# passing and one failing each; the failing ones list covering and packing
# violations (a 3-vertex net of delta 4 on a unit path) and root-stretch
# violations (the MST taken as a tree of eps 0.05).
REPORT_GOLDEN = {
    "net-pass": "b12ae4f347c59ee9bd4407130c4fdd57694d6c3ed85461482ca94512215cd408",
    "net-fail": "9364c4d236ec5512dfe83de462eb759512c3a51d04bd30216eeaa12e3b856c55",
    "slt-pass": "427d0b07f6d84b28e30a40fb43c5e459bda85c9ec99e6f624bc68438ca16e18c",
    "slt-fail": "8dfa4d85ec20ed53ef5f6f36d85527be033e8ea9db70df18ae40376a14ac2a80",
}


def _report(name):
    geo = generate_graph("geometric_unit_square", 200, seed=0)
    if name == "net-pass":
        return verify_net(geo, greedy_delta_net(geo, 0.2))
    if name == "net-fail":
        return verify_net(generate_graph("path", 10, seed=0, weight_range=(1.0, 1.0)), DeltaNet(4.0, (0, 1, 2)))
    if name == "slt-pass":
        return verify_slt(geo, slt_forest(geo, (0,), 0.5), 0, 0.5)
    return verify_slt(geo, mst(geo), 0, 0.05)


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_net_and_slt_reports_match_golden(name):
    report = _report(name)
    assert report.passed == name.endswith("pass")
    assert _canonical_sha256(report.to_json_dict()) == REPORT_GOLDEN[name]


# sha256 of the net hierarchy of every PHASE_TAG_GOLDEN build: (every
# level's members from -1 up, every nearest-member row, the sorted H0 edges).
# NET_GOLDEN pins greedy_delta_net on its own; its key, False, says that
# the net starts from no seed.
HIERARCHY_GOLDEN = {
    ("erdos_renyi", 200, 0.05, False, 0): (
        "b4cf2921080896ac0ea6133f1dd2d4882adad83797687aab8418a4416e31b6fa",
        "dcbd411f9834783d839c35c8b589d67b85a5d8538cfe941d321f4d7a2c9c857f",
        "85c553427ad4f9ad5dc7e2da53c7330c37f2e68a3bd6f645593956cf39656a27",
    ),
    ("geometric_unit_square", 300, 0.05, False, 0): (
        "fcdfe49b97da07d0777c5556303ffe569ebe3cfb35cd49dd21f847cbc0a43a5c",
        "9fc7962238fa79a729e4bbbf27497bee4992396100fad12f4c16a20cde2cf924",
        "91d1e98136a894230ad2749e88e43e317439ac4bcf03beb2f247cd59dbdc8fc8",
    ),
    ("geometric_unit_square", 300, 0.05, False, 3): (
        "fcdfe49b97da07d0777c5556303ffe569ebe3cfb35cd49dd21f847cbc0a43a5c",
        "9fc7962238fa79a729e4bbbf27497bee4992396100fad12f4c16a20cde2cf924",
        "91d1e98136a894230ad2749e88e43e317439ac4bcf03beb2f247cd59dbdc8fc8",
    ),
    ("grid", 256, 0.05, False, 0): (
        "ef89cd33db5b19709b2319ea0c384ed2fc32688d4864741d1b18aee2c3c9dc36",
        "13e9c4b490304cb6c08dc646714d178e742dbf3c870152c97a156a5ea17709c1",
        "11e820c74560f0697359906b16318313df352f9e879fce44dbda8b01a196de61",
    ),
    ("path", 200, 0.09, False, 0): (
        "5ed96de1a8159b8caed641b3812ef98a82e77120a63f81715ab2e8f966cde8d1",
        "fb3c1ef6a63f2728188e787849d8cce7d98568f8ec0ec9942c859279629388c9",
        "20cff9fb8214282e95201e15746cc04473a4d384956a2fa79f4d3f72d119877c",
    ),
    ("path", 200, 0.5, True, 0): (
        "5ed96de1a8159b8caed641b3812ef98a82e77120a63f81715ab2e8f966cde8d1",
        "fb3c1ef6a63f2728188e787849d8cce7d98568f8ec0ec9942c859279629388c9",
        "20cff9fb8214282e95201e15746cc04473a4d384956a2fa79f4d3f72d119877c",
    ),
    ("path", 200, 0.5, True, 5): (
        "5ed96de1a8159b8caed641b3812ef98a82e77120a63f81715ab2e8f966cde8d1",
        "fb3c1ef6a63f2728188e787849d8cce7d98568f8ec0ec9942c859279629388c9",
        "20cff9fb8214282e95201e15746cc04473a4d384956a2fa79f4d3f72d119877c",
    ),
}

NET_GOLDEN = {
    False: "62604fde4663e103d9fc3e23f9caaff3798aae5408a09675348ef91234b9ca27",
}


@pytest.mark.parametrize("family, n, eps, unsafe_eps, seed", sorted(PHASE_TAG_GOLDEN))
def test_net_hierarchy_matches_golden(family, n, eps, unsafe_eps, seed):
    h = build_spanner(generate_graph(family, n, seed=0), eps, 2, seed, unsafe_eps=unsafe_eps).internals.hierarchy
    digests = (
        _canonical_sha256([[i, list(h.levels[i].members)] for i in sorted(h.levels)]),
        _canonical_sha256([list(row) for row in h.nearest]),
        _canonical_sha256(sorted(h.h0_edges)),
    )
    assert digests == HIERARCHY_GOLDEN[(family, n, eps, unsafe_eps, seed)]


@pytest.mark.parametrize("seeded", sorted(NET_GOLDEN))
def test_greedy_net_matches_golden(seeded):
    geo = generate_graph("geometric_unit_square", 200, seed=0)
    net = greedy_delta_net(geo, 0.2)
    assert _canonical_sha256(list(net.members)) == NET_GOLDEN[seeded]
