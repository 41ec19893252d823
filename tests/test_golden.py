"""Pinned sha256 digests of CLI artifacts on small fixed inputs.

The CLI promises byte-identical artifacts for a fixed (graph, eps, k, seed).
These digests were recorded from a reference build; a change that moves any
byte of a generated graph, a spanner or a report fails here and has to say
why the output changed before it re-records them.
"""
import hashlib
import os

import pytest

from lightspanner.cli import main

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
        "spanner.json": "f2490199858e101cd2699e71a0b4aeeddbace615728729681be83b384425f375",
        "spanner.edge_list": "1ca5296e3685820c5d053f6e4c2a854d24bb4f1777ce1ec4ca475513ff70b973",
        "stretch_report.json": "b2a89557150add2d53eef2dc65bc63b347a29696f148f68bba11a325c3e1b36a",
        "lightness_report.json": "7023014963b68a5fb2c38385352fcc2f319d01b37bd154ca06192c4da747fd5d",
    },
    "erdos_renyi-200": {
        "graph.edge_list": "7dd0827048f86b0d99405816552883eb298c138014d0a5b0048e51eeb0873ae8",
        "spanner.json": "6b43184bdb5cb7a65403abf7c7db576f7138b25bfbd055237f58714508deffaf",
        "spanner.edge_list": "cad969dbed8752368a3418550bf949284a7a9a5b0da4640d33c8f6553f0a0127",
        "stretch_report.json": "75bcb80ca133b4ff51e9052ecce2236cbb80246e9f23dd8a62444bf9742d291f",
        "lightness_report.json": "23580105989172ffca2520ee838375a375d67b24156d56b0d5d9a86a17993c8a",
    },
    "grid-256": {
        "graph.edge_list": "5888a7d1b820cc35c1c333c7d2d126d5d0fa3cca097fde25a7d87a59a68fae4c",
        "spanner.json": "3897909b94af975f35d63dc3e6799bf431a2514e788ac208d24c1778e43063d7",
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
