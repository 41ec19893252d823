import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from lightspanner import cli
from lightspanner.cli import SWEEP_HEADER, main, run_sweep
from lightspanner.generate import generate_graph
from lightspanner.graph import WeightedGraph
from lightspanner.graphio import edge_list_lines, read_graph
from lightspanner.spanner import PHASE_P2_REP, Spanner, SpannerParams, build_spanner, build_wmax_spanner


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _gen(workdir, family="geometric_unit_square", n=80, seed=4, fmt="edge_list"):
    rc = main(
        [
            "gen",
            "--family",
            family,
            "--n",
            str(n),
            "--seed",
            str(seed),
            "--format",
            fmt,
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    return os.path.join(str(workdir), f"graph.{fmt}")


@pytest.mark.parametrize("rows, cols", [(1, 1), (0, 5), (-2, -3), (5, None), (None, 5)])
def test_gen_rejects_a_grid_shape_nothing_can_build(workdir, capsys, rows, cols):
    argv = ["gen", "--family", "grid", "--n", "12"]
    for flag, value in (("--rows", rows), ("--cols", cols)):
        if value is not None:
            argv += [flag, str(value)]
    assert main(argv + ["--output-dir", str(workdir)]) == 2
    err = capsys.readouterr().err
    assert f"rows={rows}" in err and f"cols={cols}" in err
    assert os.listdir(workdir) == []


def test_gen_build_verify_pipeline(workdir, capsys):
    graph_path = _gen(workdir)
    rc = main(
        [
            "build",
            "--input",
            graph_path,
            "--eps",
            "0.05",
            "--k",
            "2",
            "--seed",
            "1",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    assert (workdir / "spanner.json").exists()
    assert (workdir / "spanner.edge_list").exists()

    rc = main(
        [
            "verify",
            "--input",
            graph_path,
            "--spanner",
            str(workdir / "spanner.json"),
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "stretch: PASS" in out
    assert "lightness: PASS" in out
    stretch = json.loads((workdir / "stretch_report.json").read_text())
    assert stretch["passed"] is True
    lightness = json.loads((workdir / "lightness_report.json").read_text())
    assert lightness["lightness"] >= 1.0


def test_artifacts_are_byte_deterministic(workdir):
    graph_path = _gen(workdir)
    args = [
        "build",
        "--input",
        graph_path,
        "--eps",
        "0.05",
        "--k",
        "2",
        "--seed",
        "7",
        "--output-dir",
        str(workdir),
    ]
    assert main(args) == 0
    first = _read(workdir / "spanner.json"), _read(workdir / "spanner.edge_list")
    assert main(args) == 0
    second = _read(workdir / "spanner.json"), _read(workdir / "spanner.edge_list")
    assert first == second


def _spanner_with_a_cut_edge(workdir):
    """A path graph and its k=1 spanner with one edge removed, which fails
    the stretch check; returns the graph's path."""
    graph_path = _gen(workdir, family="path", n=40)
    assert main(["build", "--input", graph_path, "--eps", "0.05", "--k", "1", "--output-dir", str(workdir)]) == 0
    payload = json.loads((workdir / "spanner.json").read_text())
    removed = payload["edges"][len(payload["edges"]) // 2]
    payload["edges"] = [e for e in payload["edges"] if e != removed]
    (workdir / "spanner.json").write_text(json.dumps(payload))
    return graph_path


def test_verify_flags_corrupted_spanner(workdir, capsys):
    graph_path = _spanner_with_a_cut_edge(workdir)
    rc = main(
        [
            "verify",
            "--input",
            graph_path,
            "--spanner",
            str(workdir / "spanner.json"),
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 1
    assert "stretch: FAIL" in capsys.readouterr().out


def _run_into_a_closed_pipe(workdir, argv, unbuffered=True, closed="stdout"):
    """Run the CLI in a child whose ``closed`` stream (stdout or stderr) is a
    pipe whose read end is closed before it starts, so its first write there
    fails with EPIPE; returns the exit code and the other stream's text."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
        child = subprocess.run([sys.executable, "-m", "lightspanner.cli", *argv], cwd=workdir, env=env, **streams)
    finally:
        os.close(write_end)
    return child.returncode, (child.stderr if closed == "stdout" else child.stdout).decode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_into_a_closed_stdout_exits_zero_and_quiet(workdir, unbuffered):
    # block-buffered, argparse's text would meet the closed pipe only in the flush
    # at exit; unbuffered, in argparse's own write
    assert _run_into_a_closed_pipe(workdir, ["sweep", "--help"], unbuffered=unbuffered) == (0, "")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_usage_error_into_a_closed_stderr_exits_two_and_quiet(workdir, unbuffered):
    # stderr is line-buffered either way, so the usage line fails in argparse's own write
    assert _run_into_a_closed_pipe(workdir, ["sweep"], unbuffered=unbuffered, closed="stderr") == (2, "")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_inspect_into_a_closed_stdout_exits_zero_and_quiet(workdir, unbuffered):
    graph_path = _gen(workdir, family="path", n=40)
    assert main(["build", "--input", graph_path, "--eps", "0.05", "--k", "1", "--output-dir", str(workdir)]) == 0
    argv = ["inspect", "--input", graph_path, "--spanner", "spanner.json"]
    assert _run_into_a_closed_pipe(workdir, argv, unbuffered) == (0, "")


def test_failing_verify_into_a_closed_stdout_keeps_its_verdict(workdir):
    graph_path = _spanner_with_a_cut_edge(workdir)
    argv = ["verify", "--input", graph_path, "--spanner", "spanner.json"]
    assert _run_into_a_closed_pipe(workdir, argv) == (1, "")
    assert not json.loads((workdir / "stretch_report.json").read_text())["passed"]


def test_sweep_into_a_closed_stdout_still_writes_its_csv(workdir):
    argv = ["sweep", "--families", "path", "--ns", "30", "--ks", "1", "--epss", "0.05", "--sample-size", "8"]
    assert _run_into_a_closed_pipe(workdir, argv) == (0, "")
    with open(workdir / "sweep.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def _drop(key):
    def edit(payload):
        del payload[key]

    return edit


def _put(key, value):
    def edit(payload):
        payload[key] = value

    return edit


def _duplicate_first_edge(payload):
    u, v, w, tag = payload["edges"][0]
    payload["edges"].append([v, u, w, tag])


# valid JSON, but too large for a float
HUGE_INT = 10**400


def _huge_first_weight(payload):
    payload["edges"][0][2] = HUGE_INT


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_drop("eps"), "missing eps", id="eps-missing"),
        pytest.param(_put("eps", HUGE_INT), "eps must be a positive number", id="eps-huge-int"),
        pytest.param(_put("scale", HUGE_INT), "scale", id="scale-huge-int"),
        pytest.param(_huge_first_weight, "finite weight", id="edge-weight-huge-int"),
        pytest.param(_put("k", None), "integer k", id="k-null"),
        pytest.param(_put("eps", "0.05"), "eps must be a positive number", id="eps-string"),
        pytest.param(_put("eps", 0.0), "eps must be a positive number", id="eps-zero"),
        pytest.param(_put("eps", 1.5), "eps < 1", id="eps-above-one"),
        pytest.param(_put("k", 0), "integer k", id="k-zero"),
        pytest.param(_put("seed", 1.5), "integer seed", id="seed-float"),
        pytest.param(_put("kind", "wmax"), "null k and seed", id="kind-k-mismatch"),
        pytest.param(_put("kind", "other"), "unknown spanner kind", id="kind-unknown"),
        pytest.param(_put("scale", -1.0), "scale", id="scale-negative"),
        pytest.param(_put("n", "40"), "n='40'", id="n-string"),
        pytest.param(_put("edges", {}), "edges must be a list", id="edges-object"),
        pytest.param(_put("edges", [[0, 1, 1.0]]), "is not [u, v, weight, tag]", id="edge-short"),
        pytest.param(_put("edges", [[0, "1", 1.0, "H0"]]), "integer endpoints", id="edge-string-endpoint"),
        pytest.param(_duplicate_first_edge, "duplicate spanner edge", id="edge-duplicate"),
    ],
)
def test_malformed_spanner_json_exits_two(workdir, capsys, edit, message):
    graph_path = _gen(workdir, family="path", n=40)
    build = ["build", "--input", graph_path, "--eps", "0.05", "--k", "1", "--output-dir", str(workdir)]
    assert main(build) == 0
    payload = json.loads((workdir / "spanner.json").read_text())
    edit(payload)
    (workdir / "spanner.json").write_text(json.dumps(payload))
    capsys.readouterr()
    verify = ["verify", "--input", graph_path, "--spanner", str(workdir / "spanner.json"), "--output-dir", str(workdir)]
    assert main(verify) == 2
    err = capsys.readouterr().err
    assert "error in verify" in err and message in err


def test_non_object_spanner_json_exits_two(workdir, capsys):
    graph_path = _gen(workdir, family="path", n=10)
    (workdir / "spanner.json").write_text("[]")
    verify = ["verify", "--input", graph_path, "--spanner", str(workdir / "spanner.json"), "--output-dir", str(workdir)]
    assert main(verify) == 2
    assert "must be a JSON object" in capsys.readouterr().err


ONE_VERTEX_SPANNER = (
    '{"schema": "spanner/v1", "kind": "hierarchical", "eps": 0.05, "k": 2, "seed": 0, '
    '"scale": 1.0, "n": 1, "edges": []}'
)


@pytest.mark.parametrize(
    "command",
    [
        ["build", "--eps", "0.05", "--k", "2", "--output-dir", "out"],
        ["build-wmax", "--eps", "0.05", "--output-dir", "out"],
        ["verify", "--spanner", "spanner.json", "--output-dir", "out"],
        ["inspect"],
    ],
    ids=["build", "build-wmax", "verify", "inspect"],
)
def test_one_vertex_graph_exits_two(workdir, capsys, command):
    (workdir / "graph.edge_list").write_text("1\n")
    (workdir / "spanner.json").write_text(ONE_VERTEX_SPANNER)
    rc = main(command + ["--input", "graph.edge_list"])
    assert rc == 2
    assert "graph has no edges" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("header", ["99999999999999999999", "1000"], ids=["huge", "sparse"])
@pytest.mark.parametrize(
    "command",
    [
        ["build", "--eps", "0.05", "--k", "2", "--output-dir", "out"],
        ["verify", "--spanner", "spanner.json", "--output-dir", "out"],
        ["inspect"],
    ],
    ids=["build", "verify", "inspect"],
)
def test_vertex_count_beyond_the_edges_exits_two(workdir, capsys, command, header):
    # one edge connects two vertices at most, so the header alone decides
    (workdir / "graph.edge_list").write_text(f"{header}\n0 1 1\n")
    (workdir / "spanner.json").write_text(ONE_VERTEX_SPANNER)
    rc = main(command + ["--input", "graph.edge_list"])
    assert rc == 2
    assert "not connected" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("size", ["0", "-1"])
def test_sampled_verify_without_sources_exits_two(workdir, capsys, size):
    graph_path = _gen(workdir, family="path", n=20)
    build = ["build", "--input", graph_path, "--eps", "0.05", "--k", "1", "--output-dir", str(workdir)]
    assert main(build) == 0
    capsys.readouterr()
    verify = [
        "verify", "--input", graph_path, "--spanner", str(workdir / "spanner.json"),
        "--mode", "sampled", f"--sample-size={size}", "--output-dir", str(workdir),
    ]
    assert main(verify) == 2
    captured = capsys.readouterr()
    assert "sample_size >= 1" in captured.err
    assert "PASS" not in captured.out
    assert not (workdir / "stretch_report.json").exists()


def test_interleaved_atomic_writes_both_land(tmp_path, monkeypatch):
    # the second write runs to completion while the first still holds its
    # temp file, as two processes writing one artifact could
    target = tmp_path / "report.json"
    real_replace = os.replace
    landed = []

    def replace_after_second_write(src, dst):
        if not landed:
            landed.append(None)
            cli._atomic_write(str(target), ("second\n",))
            landed[0] = target.read_text()
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace_after_second_write)
    cli._atomic_write(str(target), ("first\n",))
    assert landed == ["second\n"]
    assert target.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "report.json"), ("text\n",))
    assert os.listdir(tmp_path) == []


def test_failed_edge_list_writes_keep_the_old_files(workdir, monkeypatch):
    first = _gen(workdir, family="path", n=20)
    assert main(["build", "--input", first, "--eps", "0.05", "--k", "1", "--output-dir", str(workdir)]) == 0
    second = _gen(workdir / "b", n=30)
    old = {name: _read(workdir / name) for name in ("graph.edge_list", "spanner.edge_list")}
    real_replace = os.replace

    def fail_edge_lists(src, dst):
        if dst.endswith(".edge_list"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", fail_edge_lists)
    assert main(["gen", "--family", "grid", "--n", "36", "--output-dir", str(workdir)]) == 2
    assert main(["build", "--input", second, "--eps", "0.05", "--k", "1", "--output-dir", str(workdir)]) == 2
    for name, data in old.items():
        assert _read(workdir / name) == data
    assert sorted(os.listdir(workdir)) == ["b", "graph.edge_list", "spanner.edge_list", "spanner.json"]


@pytest.mark.parametrize(
    "name, text",
    [("graph.edge_list", "3\n0 1 1.0\n1 2 1e999\n"), ("graph.dimacs", "p sp 3 2\na 1 2 1.0\na 2 3 1e999\n")],
    ids=["edge_list", "dimacs"],
)
def test_an_infinite_weight_exits_two_naming_its_line(workdir, capsys, name, text):
    (workdir / name).write_text(text)
    fmt = name.split(".")[1]
    rc = main(["build", "--input", name, "--format", fmt, "--eps", "0.05", "--k", "2", "--output-dir", "out"])
    assert rc == 2
    assert "line 3: weight inf is not positive and finite" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def _spanners_to_write():
    """A hierarchical build with every phase tag (edges retagged P2_REP, which
    H0 preempts in real builds at these sizes), a wmax build, and a spanner
    without edges."""
    hier = build_spanner(generate_graph("geometric_unit_square", 120, seed=0), 0.5, 2, 1, unsafe_eps=True)
    retagged = {e: PHASE_P2_REP if i % 5 == 0 else tag for i, (e, tag) in enumerate(hier.phase_tag.items())}
    cycle = [(i, (i + 1) % 64, 1.0 + (i % 3) / 4) for i in range(64)] + [(i, i + 32, 300.0 + i) for i in range(0, 32, 5)]
    wmax = build_wmax_spanner(WeightedGraph(64, cycle), 0.05)
    empty = Spanner(host=WeightedGraph(1, []), phase_tag={}, params=wmax.params, scale=1.0)
    return {"hierarchical": Spanner(hier.host, retagged, hier.params, hier.scale), "wmax": wmax, "empty": empty}


@pytest.mark.parametrize("name", ["hierarchical", "wmax", "empty"])
def test_streamed_spanner_json_is_the_json_dump(tmp_path, name):
    sp = _spanners_to_write()[name]
    if name == "hierarchical":
        assert set(sp.phase_tag.values()) == {"H0", "P2_REP", "P2_DIRECT", "P2_TOP", "SLT"}
    cli._write_spanner_artifacts(sp, str(tmp_path))
    assert (tmp_path / "spanner.json").read_text() == json.dumps(sp.to_json_dict(), indent=2, sort_keys=True) + "\n"
    wt = sp.host.weight_of
    edge_list = "".join(edge_list_lines(sp.host.n, [(u, v, wt(u, v)) for u, v in sorted(sp.edges)]))
    assert (tmp_path / "spanner.edge_list").read_text() == edge_list


def test_spanner_files_look_no_weight_up(tmp_path, monkeypatch):
    # the writer walks the host's edges once and reads each weight there
    sp = _spanners_to_write()["hierarchical"]
    lookups = []
    weight_of, has_edge = WeightedGraph.weight_of, WeightedGraph.has_edge

    def counting_weight_of(self, u, v):
        lookups.append((u, v))
        return weight_of(self, u, v)

    def counting_has_edge(self, u, v):
        lookups.append((u, v))
        return has_edge(self, u, v)

    monkeypatch.setattr(WeightedGraph, "weight_of", counting_weight_of)
    monkeypatch.setattr(WeightedGraph, "has_edge", counting_has_edge)
    cli._write_spanner_artifacts(sp, str(tmp_path))
    assert lookups == []
    assert (tmp_path / "spanner.json").exists()


def test_streamed_spanner_json_failing_mid_stream_keeps_the_old_file(tmp_path, monkeypatch):
    sp = _spanners_to_write()["hierarchical"]
    cli._write_spanner_artifacts(sp, str(tmp_path))
    old = _read(tmp_path / "spanner.json")
    real_chunks = cli._spanner_json_chunks

    def failing_chunks(head, rows):
        for i, chunk in enumerate(real_chunks(head, rows)):
            if i == len(rows) // 2:
                raise OSError("disk full")
            yield chunk

    monkeypatch.setattr(cli, "_spanner_json_chunks", failing_chunks)
    with pytest.raises(OSError, match="disk full"):
        cli._write_spanner_artifacts(sp, str(tmp_path))
    monkeypatch.undo()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        cli._write_spanner_artifacts(sp, str(tmp_path))
    assert _read(tmp_path / "spanner.json") == old
    assert sorted(os.listdir(tmp_path)) == ["spanner.edge_list", "spanner.json"]


def test_atomic_write_keeps_the_mode_of_a_plain_write(tmp_path):
    (tmp_path / "plain.txt").write_text("x")
    cli._atomic_write(str(tmp_path / "atomic.txt"), ("x",))
    assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_bad_eps_exits_two(workdir, capsys):
    graph_path = _gen(workdir, family="path", n=20)
    rc = main(
        [
            "build",
            "--input",
            graph_path,
            "--eps",
            "0.5",
            "--k",
            "1",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error in build" in err and "eps" in err


def test_unsafe_eps_flag_lets_it_through(workdir):
    graph_path = _gen(workdir, family="path", n=20)
    rc = main(
        [
            "build",
            "--input",
            graph_path,
            "--eps",
            "0.5",
            "--unsafe-eps",
            "--k",
            "1",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0


def test_missing_input_exits_two(workdir, capsys):
    rc = main(
        [
            "build",
            "--input",
            str(workdir / "nope.edge_list"),
            "--eps",
            "0.05",
            "--k",
            "1",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 2
    assert "i/o failure" in capsys.readouterr().err


def test_dimacs_pipeline(workdir):
    graph_path = _gen(workdir, family="grid", n=36, fmt="dimacs")
    rc = main(
        [
            "build",
            "--input",
            graph_path,
            "--format",
            "dimacs",
            "--eps",
            "0.05",
            "--k",
            "2",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "verify",
            "--input",
            graph_path,
            "--format",
            "dimacs",
            "--spanner",
            str(workdir / "spanner.json"),
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0


def _heavy_star(tmp_path):
    """A star with one heavy spoke, so build-wmax's precondition holds."""
    graph_path = tmp_path / "star.edge_list"
    lines = ["16"] + [f"0 {i} 1.0" for i in range(1, 15)] + ["0 15 600.0"]
    graph_path.write_text("\n".join(lines) + "\n")
    return graph_path


def test_build_wmax_command(workdir, tmp_path):
    graph_path = _heavy_star(tmp_path)
    rc = main(
        [
            "build-wmax",
            "--input",
            str(graph_path),
            "--eps",
            "0.5",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    payload = json.loads((workdir / "spanner.json").read_text())
    assert payload["kind"] == "wmax"
    rc = main(
        [
            "verify",
            "--input",
            str(graph_path),
            "--spanner",
            str(workdir / "spanner.json"),
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("eps", ["inf", "1e309"])
def test_build_wmax_rejects_non_finite_eps(workdir, tmp_path, capsys, eps):
    graph_path = _heavy_star(tmp_path)
    rc = main(["build-wmax", "--input", str(graph_path), "--eps", eps, "--output-dir", str(workdir)])
    assert rc == 2
    assert "eps" in capsys.readouterr().err
    assert not (workdir / "spanner.json").exists()


@pytest.mark.parametrize("k", [65, 100])
def test_build_exits_two_when_the_stretch_bound_overflows(workdir, capsys, k):
    # the stretch constant 24*(3D)^k is not a finite float, so no verify
    # could certify the spanner: build refuses before it writes anything
    graph_path = _gen(workdir, family="path", n=50)
    capsys.readouterr()
    build = ["build", "--input", graph_path, "--eps", "0.05", "--k", str(k), "--output-dir", str(workdir)]
    assert main(build) == 2
    captured = capsys.readouterr()
    assert f"eps=0.05, k={k}" in captured.err
    assert captured.out == ""
    assert not (workdir / "spanner.json").exists()
    assert not (workdir / "spanner.edge_list").exists()


@pytest.mark.parametrize("k", [65, 100])
def test_verify_exits_two_when_the_stretch_bound_overflows(workdir, capsys, k):
    # the library builds with k beyond log2(n), warning only; the stretch
    # constant 24*(3D)^k of such a spanner is not a finite float
    graph_path = _gen(workdir, family="path", n=50)
    with pytest.warns(UserWarning, match="exceeds log2"):
        sp = build_spanner(read_graph(graph_path, "edge_list"), 0.05, k, 0, keep_internals=False)
    (workdir / "spanner.json").write_text(json.dumps(sp.to_json_dict()))
    capsys.readouterr()
    verify = ["verify", "--input", graph_path, "--spanner", str(workdir / "spanner.json"), "--output-dir", str(workdir)]
    assert main(verify) == 2
    captured = capsys.readouterr()
    assert f"eps=0.05, k={k}" in captured.err
    assert "PASS" not in captured.out
    assert not (workdir / "stretch_report.json").exists()


def test_build_wmax_rejects_light_graph(workdir, capsys):
    graph_path = _gen(workdir, family="grid", n=25)
    rc = main(
        [
            "build-wmax",
            "--input",
            graph_path,
            "--eps",
            "0.5",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 2
    assert "sqrt(n)" in capsys.readouterr().err


def test_inspect_outputs_summary(workdir, capsys):
    graph_path = _gen(workdir, family="path", n=12)
    assert (
        main(
            [
                "build",
                "--input",
                graph_path,
                "--eps",
                "0.05",
                "--k",
                "1",
                "--output-dir",
                str(workdir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    rc = main(
        [
            "inspect",
            "--input",
            graph_path,
            "--spanner",
            str(workdir / "spanner.json"),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["n"] == 12
    assert payload["spanner"]["kind"] == "hierarchical"


def test_inspect_requires_something(capsys):
    assert main(["inspect"]) == 2
    assert "inspect needs" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[]", '"x"', "3"])
def test_inspect_non_object_spanner_json_exits_two(workdir, capsys, content):
    (workdir / "bad.json").write_text(content)
    assert main(["inspect", "--spanner", str(workdir / "bad.json")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_too_deeply_nested_spanner_json_exits_two(workdir, capsys, command):
    (workdir / "graph.edge_list").write_text("2\n0 1 1.0\n")
    (workdir / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    args = [command, "--input", "graph.edge_list", "--spanner", "deep.json"]
    assert main(args) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_sweep_writes_csv(workdir, capsys):
    rc = main(
        [
            "sweep",
            "--families",
            "path",
            "erdos_renyi",
            "--ns",
            "40",
            "--ks",
            "1",
            "2",
            "--epss",
            "0.05",
            "--seeds",
            "0",
            "1",
            "--mode",
            "sampled",
            "--sample-size",
            "16",
            "--output-dir",
            str(workdir),
        ]
    )
    assert rc == 0
    with open(workdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 1 * 2 * 1 * 2
    assert tuple(rows[0]) == SWEEP_HEADER
    # fixed nesting order: family outermost, then n, k, eps, seed
    assert [(r["family"], r["k"], r["seed"]) for r in rows[:4]] == [
        ("path", "1", "0"),
        ("path", "1", "1"),
        ("path", "2", "0"),
        ("path", "2", "1"),
    ]
    for r in rows:
        assert float(r["lightness"]) >= 1.0 - 1e-9
        assert float(r["worst_mult"]) >= 1.0
        assert int(r["size"]) >= 39


def test_a_second_sweep_replaces_the_first_ones_csv(workdir, capsys):
    def sweep(family, seeds):
        argv = ["sweep", "--families", family, "--ns", "30", "--ks", "1", "--epss", "0.05"]
        assert main(argv + ["--seeds", *seeds, "--sample-size", "8", "--output-dir", str(workdir)]) == 0
        with open(workdir / "sweep.csv", newline="") as fh:
            return [(r["family"], r["seed"]) for r in csv.DictReader(fh)]

    assert sweep("erdos_renyi", ["0", "1", "2"]) == [("erdos_renyi", "0"), ("erdos_renyi", "1"), ("erdos_renyi", "2")]
    assert sweep("path", ["5"]) == [("path", "5")]
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "sweep               build+verify a parameter grid, writing sweep.csv" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "replacing the file a previous sweep wrote there" in " ".join(capsys.readouterr().out.split())


def test_run_sweep_rows_carry_extras(workdir):
    rows = list(
        run_sweep(
            families=["path"],
            ns=[30],
            ks=[1],
            epss=[0.05],
            seeds=[0],
            mode="sampled",
            sample_size=8,
        )
    )
    assert len(rows) == 1
    assert rows[0]["h0_weight"] <= rows[0]["size"] * 2.0
    assert rows[0]["mst_weight"] > 0
    assert rows[0]["runtime_ms"] >= 0


def test_run_sweep_rejects_an_empty_sample(workdir):
    with pytest.raises(ValueError, match="sample_size >= 1"):
        list(run_sweep(families=["path"], ns=[30], ks=[1], epss=[0.05], seeds=[0], mode="sampled", sample_size=0))


def test_a_stretch_violation_stops_the_sweep_before_its_csv(workdir, capsys, monkeypatch):
    # the second cell's stretch report fails: the first cell's line is
    # printed as its row arrives, and no sweep.csv is written
    verify_stretch = cli.verify_stretch
    reports = []

    def failing_second_cell(g, sp, **kwargs):
        reports.append(verify_stretch(g, sp, **kwargs))
        return dataclasses.replace(reports[-1], violation_count=len(reports) - 1)

    monkeypatch.setattr(cli, "verify_stretch", failing_second_cell)
    argv = ["sweep", "--families", "path", "--ns", "30", "--ks", "1", "--epss", "0.05", "--seeds", "0", "1"]
    assert main(argv + ["--sample-size", "8", "--output-dir", str(workdir)]) == 2
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines()] == ["cell family=path n=30 k=1 eps=0.05 seed=0"]
    assert "stretch violation in sweep cell (family=path n=30 k=1 eps=0.05 seed=1)" in err
    assert not (workdir / "sweep.csv").exists()


def test_sweep_csv_deterministic(workdir):
    argv = ["sweep", "--families", "path", "--ns", "25", "--ks", "1", "--epss", "0.05", "--seeds", "3"]
    for out in ("a", "b"):
        assert main(argv + ["--sample-size", "8", "--output-dir", str(workdir / out)]) == 0
    a = _read(workdir / "a" / "sweep.csv")
    b = _read(workdir / "b" / "sweep.csv")
    # runtime_ms is wall-clock and may differ; strip that column before comparing
    strip = lambda blob: [line.rsplit(b",", 1)[0] for line in blob.splitlines()]
    assert strip(a) == strip(b)
