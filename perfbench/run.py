"""lightspanner benchmark: build and certify workloads through the public CLI and API.

    python3 perfbench/run.py --workload geo-build --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is taken from ``src/`` there,
so nothing needs installing. Every program step runs alone in a fresh
single-threaded process pinned to one CPU: ``gen``, ``build`` and ``verify``
through ``python3 -m lightspanner.cli``, and the lemma suite through
``perfbench/step.py lemma``. Peak RSS comes from ``os.wait4``.

Step times are wall times rescaled to a reference machine speed. The host's
speed swings by up to 1.9x within seconds, so a pure-Python reference
workload (``reference_seconds``) is timed on the same CPU right before and
right after each step, and the step's wall time is multiplied by
``REF_NOMINAL_S`` over their mean. On 2-vCPU shared hosts this cut the
spread of run medians from 20-50% to 4-19%; unscaled medians are printed
too.

A run generates its graphs from ``--seed`` (set-up, repeated so setup_s is a
median), runs the lemma suite on each lemma graph once, then repeats build +
verify, cycling over the main graphs, until ``--seconds`` have passed since
the start, with at least one more pass than there are main graphs so every
run rebuilds a graph and compares the bytes. Every step's output is
checked; a failed check makes the run print ``"correct": false`` and exit 1.

With ``--trace 1`` the passes alternate between plain and traced steps on
the first main graph; traced steps run through ``perfbench/step.py``, which
records spans (see ``tracing.py``). The run prints the per-layer metrics of
the traced steps and the tracing overhead, and checks that traced steps
write byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the error rate. Earlier lines give each metric with its
sample count and the sha256 of every spanner.json.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import heapq
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
from step import canonical_sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

EPS = 0.05
K = 2
SAMPLE_SIZE = 64
SETUP_GENS = 6
STEP_TIMEOUT_S = 150.0
REF_N = 400
REF_SOURCES = 60
REF_NOMINAL_S = 0.027  # reference_seconds() at full speed on the 2-vCPU Xeon host the bounds were set on
ARTIFACTS = ("spanner.json", "spanner.edge_list", "stretch_report.json", "lightness_report.json")


@dataclasses.dataclass(frozen=True)
class Workload:
    """Main graphs are built and verified; lemma graphs are certified by the lemma suite.

    ``lemma_n`` None means the lemma suite certifies the main graphs
    themselves; otherwise it certifies ``lemma_graphs`` separate graphs of
    the same family with ``lemma_n`` vertices.
    """

    family: str
    n: int
    graphs: int
    verify_mode: str
    lemma_n: int | None
    lemma_graphs: int


# Why each workload exists is recorded in BENCHMARK.json and perfbench/BASELINE.json.
WORKLOADS = {
    "geo-build": Workload("geometric_unit_square", 8192, 1, "sampled", 256, 6),
    "er-build": Workload("erdos_renyi", 4096, 1, "sampled", 256, 6),
    "geo-certify": Workload("geometric_unit_square", 512, 10, "all_pairs", None, 10),
}


def _reference_graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(12345)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(REF_N)]
    for u in range(REF_N):
        for v in (rng.randrange(REF_N) for _ in range(3)):
            if v != u:
                w = rng.uniform(1.0, 2.0)
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


REF_ADJ = _reference_graph()


def reference_seconds() -> float:
    """Time of a fixed pure-Python Dijkstra workload: the yardstick of machine speed.

    It shares no code with lightspanner, so it measures only how fast the
    interpreter runs right now on this CPU.
    """
    start = time.perf_counter()
    for source in range(REF_SOURCES):
        dist = [math.inf] * REF_N
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in REF_ADJ[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return time.perf_counter() - start


def graph_seed(seed: int, index: int) -> int:
    # generate_graph retries with seed + 1, seed + 2, ...; keep streams apart
    return seed * 1000 + index


class Run:
    """One benchmark run: its steps, samples and correctness record."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, dict[int, list[float]]] = {}  # metric -> input key -> values
        self.graphs: list[dict] = []  # per main graph: seed, path, m, file_sha, first_build, sha, canonical, quality
        self.lemma_graphs: list[tuple[str, int]] = []
        self.lemma_shas: list[str | None] = []
        self.traced_spans: list[list[list]] = []
        self.trace_gen_spans: list[list] = []
        self.trace_lemma_spans: list[list[list]] = []
        self.raw_wall: dict[str, list[float]] = {}  # metric -> unscaled wall times, for the report
        self._last_ref: float | None = None  # reference time taken right after the previous step

    # ----------------------------------------------------------------- steps

    def _process(self, argv: list[str], tag: str) -> tuple[int, float, float, float, str]:
        """Run one step alone; returns (exit code, wall s, speed factor, peak RSS MB, stdout).

        The speed factor is REF_NOMINAL_S over the mean of the reference
        times just before and just after the step, on the step's CPU; wall *
        factor is the step's time at the reference speed.
        """
        out_path = os.path.join(self.workdir, f"{tag}.out")
        err_path = os.path.join(self.workdir, f"{tag}.err")
        ref_before = self._last_ref if self._last_ref is not None else reference_seconds()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        self._last_ref = reference_seconds()
        factor = REF_NOMINAL_S / ((ref_before + self._last_ref) / 2.0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, "r", encoding="utf-8") as fh:
                sys.stderr.write(f"[{tag}] exit {proc.returncode}\n{fh.read()[-2000:]}")
        return proc.returncode, wall, factor, usage.ru_maxrss / 1024.0, stdout

    def _command(self, cli_args: list[str], spans: str | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "lightspanner.cli", *cli_args]
        return [sys.executable, os.path.join(HERE, "step.py"), "--spans", spans,
                "--run-id", f"{self.seed}:{os.path.basename(spans)}", "cli", *cli_args]

    def fail(self, what: str) -> None:
        self.failures.append(what)
        sys.stderr.write(f"check failed: {what}\n")

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def _sample(self, metric: str, key: int, value: float) -> None:
        """Record one value of a metric for the input identified by key."""
        self.samples.setdefault(metric, {}).setdefault(key, []).append(value)

    def _time(self, metric: str, key: int, wall: float, factor: float) -> None:
        """Record a step time at the reference speed, keeping the raw wall time for the report."""
        self._sample(metric, key, wall * factor)
        self.raw_wall.setdefault(metric, []).append(wall)

    def gen(self, family: str, n: int, gseed: int, tag: str, spans: str | None = None):
        """Generate one graph into workdir/tag; returns (path, m, wall s) or None on failure."""
        self.attempted += 1
        out_dir = os.path.join(self.workdir, tag)
        argv = self._command(["gen", "--family", family, "--n", str(n), "--seed", str(gseed),
                              "--output-dir", out_dir], spans)
        code, wall, factor, _, stdout = self._process(argv, tag)
        match = re.search(r" m=(\d+) ", stdout)
        if not self.check(code == 0 and match is not None, f"{tag}: gen exit {code}"):
            return None
        return os.path.join(out_dir, "graph.edge_list"), int(match.group(1)), wall, factor

    def build(self, graph: dict, tag: str, spans: str | None = None) -> str | None:
        """Build into workdir/tag; returns the output directory if every check passed."""
        self.attempted += 1
        out_dir = os.path.join(self.workdir, tag)
        argv = self._command(["build", "--input", graph["path"], "--eps", str(EPS), "--k", str(K),
                              "--seed", str(graph["seed"]), "--output-dir", out_dir], spans)
        code, wall, factor, rss, _ = self._process(argv, tag)
        if not self.check(code == 0, f"{tag}: build exit {code}"):
            return None
        if spans is None:
            self._time("build_s", graph["seed"], wall, factor)
            self._sample("build_rss_mb", graph["seed"], rss)
        else:
            self._time("traced_build_s", graph["seed"], wall, factor)
        spanner_json = os.path.join(out_dir, "spanner.json")
        if graph.get("first_build") is None:
            graph["first_build"] = spanner_json
            graph["sha"] = file_sha256(spanner_json)
            graph["canonical"] = canonical_sha256(load_json(spanner_json))
        elif not self.check(file_sha256(spanner_json) == file_sha256(graph["first_build"]),
                             f"{tag}: spanner.json differs from the first build of this graph"):
            return None
        return out_dir

    def verify(self, graph: dict, out_dir: str, tag: str, spans: str | None = None) -> bool:
        self.attempted += 1
        argv = self._command(["verify", "--input", graph["path"], "--spanner",
                              os.path.join(out_dir, "spanner.json"), "--mode", self.w.verify_mode,
                              "--sample-size", str(SAMPLE_SIZE), "--seed", str(graph["seed"]),
                              "--output-dir", out_dir], spans)
        code, wall, factor, rss, _ = self._process(argv, tag)
        if not self.check(code == 0, f"{tag}: verify exit {code}"):
            return False
        if spans is None:
            self._time("verify_s", graph["seed"], wall, factor)
            self._sample("verify_rss_mb", graph["seed"], rss)
        stretch = load_json(os.path.join(out_dir, "stretch_report.json"))
        light = load_json(os.path.join(out_dir, "lightness_report.json"))
        n = self.w.n
        expected_pairs = n * (n - 1) // 2 if self.w.verify_mode == "all_pairs" else min(SAMPLE_SIZE, n) * (n - 1)
        ok = self.check(stretch["passed"] and stretch["violation_count"] == 0, f"{tag}: stretch report failed")
        ok &= self.check(stretch["pairs_checked"] == expected_pairs,
                          f"{tag}: {stretch['pairs_checked']} pairs checked, expected {expected_pairs}")
        ok &= self.check(light["passed"] and light["lightness"] >= 1.0, f"{tag}: lightness report failed")
        quality = (light["lightness"], light["size"] / graph["m"])
        if graph.get("quality") is None:
            graph["quality"] = quality
            self._sample("lightness", graph["seed"], quality[0])
            self._sample("edges_kept", graph["seed"], quality[1])
        else:
            ok &= self.check(quality == graph["quality"], f"{tag}: lightness report changed between builds")
        return ok

    def lemma_step(self, path: str, gseed: int, tag: str, spans: str | None = None) -> dict | None:
        self.attempted += 1
        argv = [sys.executable, os.path.join(HERE, "step.py")]
        if spans is not None:
            argv += ["--spans", spans, "--run-id", f"{self.seed}:{tag}"]
        argv += ["lemma", "--eps", str(EPS), "--k", str(K), "--seed", str(gseed), "--graph", path]
        code, _, factor, rss, stdout = self._process(argv, tag)
        if not self.check(code == 0, f"{tag}: lemma suite exit {code}"):
            return None
        result = json.loads(stdout.strip().splitlines()[-1])
        result["factor"] = factor
        if not self.check(result["passed"] and result["checked"] > 0, f"{tag}: lemma suite failed"):
            return None
        if spans is None:
            self._sample("lemma_rss_mb", gseed, rss)
        else:
            self.trace_lemma_spans.append(tracing.load_spans(spans))
        return result

    # ------------------------------------------------------------------ runs

    def setup(self, trace: bool) -> bool:
        """Generate the main graphs (repeating them up to SETUP_GENS gens) and the lemma graphs."""
        w = self.w
        for j in range(w.graphs):
            self.graphs.append({"seed": graph_seed(self.seed, j)})
        reps = max(SETUP_GENS, w.graphs)
        for r in range(reps):
            graph = self.graphs[r % w.graphs]
            made = self.gen(w.family, w.n, graph["seed"], f"gen-{r}")
            if made is None:
                return False
            path, m, wall, factor = made
            self._time("setup_s", r, wall, factor)
            if "path" not in graph:
                graph.update(path=path, m=m, file_sha=file_sha256(path))
            elif not self.check(file_sha256(path) == graph["file_sha"], f"gen-{r}: graph file differs"):
                return False
        if trace:
            spans = os.path.join(self.workdir, "gen-traced.spans.json")
            made = self.gen(w.family, w.n, self.graphs[0]["seed"], "gen-traced", spans)
            if made is None or not self.check(file_sha256(made[0]) == self.graphs[0]["file_sha"],
                                               "traced gen wrote a different graph file"):
                return False
            self.trace_gen_spans = tracing.load_spans(spans)
        if w.lemma_n is None:
            self.lemma_graphs = [(g["path"], g["seed"]) for g in self.graphs]
        else:
            for j in range(w.lemma_graphs):
                gseed = graph_seed(self.seed, 500 + j)
                made = self.gen(w.family, w.lemma_n, gseed, f"lemma-gen-{j}")
                if made is None:
                    return False
                self.lemma_graphs.append((made[0], gseed))
        return True

    def certify(self, trace: bool) -> None:
        """Run the lemma suite on every lemma graph, each in its own process.

        lemma_s is the suite's total time over the set: single instances vary
        with how many connection paths overlap, and the sum averages that out.
        """
        total_s = scaled_s = 0.0
        for j, (path, gseed) in enumerate(self.lemma_graphs):
            tag = f"lemma-{j}"
            spans = os.path.join(self.workdir, f"{tag}.spans.json") if trace else None
            result = self.lemma_step(path, gseed, tag, spans)
            self.lemma_shas.append(None if result is None else result["spanner_sha256"])
            if result is not None:
                total_s += result["lemma_s"]
                scaled_s += result["lemma_s"] * result["factor"]
        if not trace and all(self.lemma_shas):
            self._time("lemma_s", 0, total_s, scaled_s / total_s)

    def passes(self, deadline: float, trace: bool) -> None:
        """Build + verify passes until the deadline, at least one more than there are main graphs."""
        i = 0
        last = 0.0
        plain_dir = None
        minimum = 2 if trace else self.w.graphs + 1
        while i < minimum or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            traced = trace and i % 2 == 1
            graph = self.graphs[0] if trace else self.graphs[i % self.w.graphs]
            tag = f"pass-{i}"
            spans = [None, None]
            if traced:
                spans = [os.path.join(self.workdir, f"{tag}.{step}.spans.json") for step in ("build", "verify")]
            out_dir = self.build(graph, f"{tag}-build", spans[0])
            ok = out_dir is not None and self.verify(graph, out_dir, f"{tag}-verify", spans[1])
            if not traced:
                plain_dir = out_dir if ok else None
            elif ok:
                self.traced_spans.append([tracing.load_spans(s) for s in spans])
                if plain_dir is not None:
                    self._compare_artifacts(plain_dir, out_dir)
            i += 1
            last = time.perf_counter() - start

    def _compare_artifacts(self, plain_dir: str, traced_dir: str) -> None:
        self.attempted += 1
        for name in ARTIFACTS:
            same = file_sha256(os.path.join(plain_dir, name)) == file_sha256(os.path.join(traced_dir, name))
            if not self.check(same, f"traced run wrote a different {name}"):
                return

    def final_checks(self) -> None:
        """The lemma step's in-process builds must match the CLI builds of the same graphs."""
        if self.w.lemma_n is None:
            for j, (graph, sha) in enumerate(zip(self.graphs, self.lemma_shas)):
                if graph.get("canonical") is not None and sha is not None:
                    self.attempted += 1
                    self.check(graph["canonical"] == sha, f"graph {j}: lemma-step build differs from the CLI build")

    # --------------------------------------------------------------- metrics

    def end_to_end(self) -> dict[str, float]:
        return {name: summarize(by_input) for name, by_input in self.samples.items()}

    def per_layer(self) -> dict[str, float]:
        per_pass = [tracing.layer_metrics([self.trace_gen_spans, *self.trace_lemma_spans, *pass_spans])
                    for pass_spans in self.traced_spans]
        if not per_pass:
            return {}
        out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        if self.samples.get("build_s") and self.samples.get("traced_build_s"):
            out["trace.overhead"] = summarize(self.samples["traced_build_s"]) / summarize(self.samples["build_s"])
        return out


def summarize(by_input: dict[int, list[float]]) -> float:
    """A run's value for one metric: the median over inputs of each input's median."""
    return statistics.median(statistics.median(values) for values in by_input.values())


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end name -> unit, per-layer name -> unit) from BENCHMARK.json."""
    spec = load_json(BENCHMARK_JSON)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> tuple[dict, Run]:
    """Execute one run in workdir; returns (result object, the run)."""
    start = time.perf_counter()
    r = Run(workload, seed, workdir)
    if r.setup(trace):
        r.certify(trace)
        r.passes(start + seconds, trace)
        r.final_checks()
    end_to_end, per_layer = declared_metrics()
    units = per_layer if trace else end_to_end
    values = r.per_layer() if trace else r.end_to_end()
    for name in units:
        if name not in values:
            r.fail(f"metric {name} was not measured")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    result = {"correct": not r.failures, "attempted": r.attempted, "failed": len(r.failures), "metrics": metrics}
    return result, r


def report(name: str, seed: int, result: dict, r: Run) -> None:
    for j, graph in enumerate(r.graphs):
        if graph.get("sha"):
            print(f"spanner.json sha256 workload={name} seed={seed} graph={j}: {graph['sha']}")
    for metric, entry in result["metrics"].items():
        by_input = r.samples.get(metric)
        if by_input is None:
            how = f"median of {len(r.traced_spans)} traced passes"
        else:
            how = f"{sum(map(len, by_input.values()))} samples of {len(by_input)} inputs"
            if metric in r.raw_wall:
                how += f"; unscaled wall median {statistics.median(r.raw_wall[metric]):.6g} s"
        print(f"{metric:45s} {entry['value']:.6g} {entry['unit']} ({how})")
    print(f"error_rate {result['failed']}/{result['attempted']}")


def package_importable(env: dict) -> bool:
    probe = subprocess.run([sys.executable, "-c", "import lightspanner.cli"], env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return probe.returncode == 0


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if not os.path.isfile(BENCHMARK_JSON) or not package_importable(env):
        print(f"cannot import lightspanner from {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    cpus = os.sched_getaffinity(0)
    # the reference workload and every step share one CPU, so one speed factor covers both
    os.sched_setaffinity(0, {min(cpus)})
    try:
        result, r = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it
    report(args.workload, args.seed, result, r)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
