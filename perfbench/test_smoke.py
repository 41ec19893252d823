"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once plain and once traced on graphs of a few dozen
vertices; the test checks that every metric BENCHMARK.json declares is
emitted with its unit and that the correctness gate trips on bad output.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY = {
    name: dataclasses.replace(
        w,
        n=48,
        graphs=min(w.graphs, 2),
        lemma_n=None if w.lemma_n is None else 40,
        lemma_graphs=min(w.lemma_graphs, 2),
    )
    for name, w in run.WORKLOADS.items()
}


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)], TINY)
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end, per_layer = run.declared_metrics()
    declared = per_layer if trace else end_to_end
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _built(tmp_path) -> tuple[run.Run, dict, str]:
    r = run.Run(TINY["geo-build"], 7, str(tmp_path))
    assert r.setup(trace=False)
    graph = r.graphs[0]
    out_dir = r.build(graph, "build-0")
    assert out_dir is not None and r.verify(graph, out_dir, "verify-0")
    assert not r.failures
    return r, graph, os.path.join(out_dir, "spanner.json")


def test_gate_trips_when_verify_rejects_a_tampered_spanner(tmp_path):
    r, graph, spanner_json = _built(tmp_path)
    payload = run.load_json(spanner_json)
    payload["edges"][0][2] *= 2.0  # no longer the host edge's weight
    with open(spanner_json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert not r.verify(graph, os.path.dirname(spanner_json), "verify-tampered")
    assert r.failures


def test_gate_trips_when_a_rebuild_differs_from_a_tampered_first_build(tmp_path):
    r, graph, spanner_json = _built(tmp_path)
    with open(spanner_json, "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert r.build(graph, "build-1") is None
    assert r.failures


def test_failed_step_makes_the_run_exit_nonzero(capsys):
    broken = {"broken": dataclasses.replace(TINY["geo-build"], family="no_such_family")}
    assert run.main(["--workload", "broken", "--seed", "7", "--seconds", "0"], broken) == 1
    result = _result(capsys)
    assert not result["correct"] and result["failed"] >= 1
