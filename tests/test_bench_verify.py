"""scripts/bench_verify.py runs end to end and writes the keys BENCH_verify.json is read by."""
import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_verify.py"
CHECKS = {"representative", "distance_in_bunch", "half_bunch_containment", "paths_intersect"}


def test_bench_verify_writes_each_checks_time_and_count(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--n", "128", "--repeat", "2", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["schema"] == "bench_verify/v1"
    assert set(data["params"]) == {"family", "eps", "k", "graph_seed", "build_seed"}
    assert data["repeat"] == 2
    (run,) = data["runs"]
    assert set(run) == {
        "n", "m", "build_s", "suite_s", "suite_runs_s", "speed_factors", "budget_s", "within_budget",
        "passed", "report_sha256", "path_sums_s", "pivot_balls", "peak_mb", "checks", "stretch",
    }
    assert run["n"] == 128 and run["passed"] and len(run["suite_runs_s"]) == 2
    # times are rescaled by the reference workload run around each of them
    assert data["ref_nominal_s"] > 0 and len(run["speed_factors"]) == 2 and min(run["speed_factors"]) > 0
    # a genuine build's path sums certify every pivot ball the suite could scan
    assert run["path_sums_s"] >= 0 and run["pivot_balls"] == 0 and run["peak_mb"] > 0
    # no budget is set at this size
    assert run["budget_s"] is None and run["within_budget"] is None
    assert set(run["checks"]) == CHECKS
    for check in run["checks"].values():
        assert set(check) == {"s", "checked", "balls", "settled"}
        assert check["s"] >= 0 and check["checked"] > 0
        assert check["settled"] >= check["balls"] >= 0
    # the representative check scans H0 balls; pivot_balls counts the other two checks' balls
    assert run["checks"]["representative"]["balls"] > 0
    assert run["pivot_balls"] == run["checks"]["half_bunch_containment"]["balls"] + run["checks"]["paths_intersect"]["balls"]
    # n=128 gets both stretch rows; after the first source, a geometric
    # input's H scans and G repairs run on bucket tables
    assert [row["mode"] for row in run["stretch"]] == ["all_pairs", "sampled"]
    for row, sources in zip(run["stretch"], (128, 64)):
        assert set(row) == {
            "mode", "pairs", "s", "runs_s", "speed_factors", "budget_s", "within_budget", "passed", "report_sha256",
            "kernel_calls", "bucket_scans", "slots_walked", "resettled", "repaired_share",
        }
        assert row["passed"] and row["s"] >= 0 and len(row["runs_s"]) == 2 and len(row["report_sha256"]) == 64
        assert len(row["speed_factors"]) == 2
        assert row["budget_s"] is None and row["within_budget"] is None
        assert row["kernel_calls"] == {
            "distances": 1,
            "bucket_lowered": sources - 1,
            "ring_distances_and_bottlenecks": 0,
            "repaired_distances": sources,
            "scan": 0,
        }
        assert row["bucket_scans"] == 2 * sources - 1
        # at most n / 8 + 1 slots per scan
        assert row["bucket_scans"] <= row["slots_walked"] <= row["bucket_scans"] * (128 // 8 + 1)
        assert 0 <= row["resettled"] <= 128 * row["bucket_scans"]
        assert 0 < row["repaired_share"] < 1
    assert run["stretch"][0]["pairs"] == 128 * 127 // 2
