#!/usr/bin/env python3
"""Time each check of the lemma suite and the stretch check in-process and record it as JSON.

    python3 scripts/bench_verify.py --out BENCH_verify.run.json
    python3 scripts/bench_verify.py --n 128 --repeat 1 --out /tmp/small.json
    python3 scripts/bench_verify.py --src ../other-checkout/src --out other.json

The process pins itself to one CPU, and every time is a wall time rescaled
to a reference machine speed as ``perfbench/run.py`` rescales its steps:
that script's ``reference_seconds`` workload runs on the same CPU right
before and right after each timed run, and the run's wall time is
multiplied by ``REF_NOMINAL_S`` over their mean (``speed_factors``).

For each n (default 2048, 4096 and 8192) it generates one
geometric_unit_square graph (graph seed GRAPH_SEED), builds its spanner
with eps 0.05, k 2 and build seed BUILD_SEED, and runs
``verify_lemma_suite`` on it ``--repeat`` times. Each check is timed where
the suite calls it, and so is the shared pass that sums the weights along
every record's path (``path_sums_s``), so the times add up to the suite's.
The half-bunch and paths-intersect checks scan a center's pivot ball only
where the paths' sums do not certify it. A check's time is the median of
its repeats; ``checked`` and the report's sha256 must repeat exactly. Each
n also records whether the suite's median fits ``BUDGET_S``.

One more, untimed run per n counts, for each check, the truncated scans it
starts (``balls``) and the vertices they settle (``settled``), through
the truncated kernel ``verify`` imports, ``DistanceBalls``.
``pivot_balls`` sums the balls of the half-bunch and paths-intersect
checks, which scan only pivot balls. The same run reads the suite's peak
traced memory (``peak_mb``, tracemalloc's peak in MB, the records and
graphs excluded since they exist before the suite starts).

``stretch`` holds one row per ``verify_stretch`` mode the n gets: all
pairs where n <= ALL_PAIRS_MAX_N, and STRETCH_SAMPLE sampled sources at
every n, each run ``--repeat`` times. A row records the median time, the
report's sha256 (which must repeat exactly), its pairs and whether the
median fits ``STRETCH_BUDGET_S``. One more, untimed run records which
per-source kernels ``verify`` called and how often (``kernel_calls``,
by name, for each name in STRETCH_KERNELS the checkout has); over the
scans on bucket tables, H's and the repair's, the scans, the slots their
walks pass (``slots_walked``) and their re-settles (``resettled``), null
where the checkout has no ``bucket_lowered``; and ``repaired_share``, the
vertices whose G distance the repair of the H scan
(``repaired_distances``) settles, as a share of n per source, or null
where no repair ran.

``--src`` names the package directory to import, so the same script times
another checkout's code, which must have ``DistanceBalls`` and
``_path_sums``. Standard library only; CI runs it at n=128 so that a
rename in ``verify`` shows there.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from contextlib import ExitStack, contextmanager

EPS = 0.05
K = 2
GRAPH_SEED = 1
BUILD_SEED = 0
FAMILY = "geometric_unit_square"
# the check functions verify_lemma_suite calls, by the name of the result each returns
CHECKS = {
    "representative": "_check_representative",
    "distance_in_bunch": "_check_distance_in_bunch",
    "half_bunch_containment": "_check_half_bunch_containment",
    "paths_intersect": "_check_paths_intersect",
}
# the pass over the records' paths whose sums the checks share
PATH_SUMS = "_path_sums"
# every function timed where the suite calls it
TIMED = (*CHECKS.values(), PATH_SUMS)
# the checks whose truncated scans are all pivot balls
PIVOT_BALL_CHECKS = ("_check_half_bunch_containment", "_check_paths_intersect")
# seconds the whole suite may take at each n, on the 2-vCPU host BENCH_verify.json was recorded on
BUDGET_S = {2048: 2.0, 8192: 20.0}
DEFAULT_N = (2048, 4096, 8192)
# the stretch check runs all pairs up to this n, and from STRETCH_SAMPLE sampled sources at every n
ALL_PAIRS_MAX_N = 4096
STRETCH_SAMPLE = 64
# seconds the all-pairs stretch check may take at each n, on the same host
STRETCH_BUDGET_S = {4096: 120.0}
# the per-source kernels verify_stretch may call, counted where the checkout has them
STRETCH_KERNELS = (
    "distances",
    "bucket_lowered",
    "ring_distances",
    "ring_distances_and_bottlenecks",
    "repaired_distances",
    "distances_and_bottlenecks",
)
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


@functools.cache
def _perfbench_run():
    """perfbench/run.py as a module, for its reference workload."""
    sys.path.insert(0, PERFBENCH)  # run.py imports its neighbours
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def at_reference_speed(fn):
    """fn()'s result, its wall time at the reference speed, and the speed
    factor: REF_NOMINAL_S over the mean of the reference times right before
    and right after it."""
    bench = _perfbench_run()
    before = bench.reference_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    factor = bench.REF_NOMINAL_S / ((before + bench.reference_seconds()) / 2.0)
    return result, wall * factor, factor


@contextmanager
def patched(owner, wrappers: dict):
    """Replace owner.<name> by wrappers[name](original) while the block runs."""
    originals = {name: getattr(owner, name) for name in wrappers}
    for name, wrap in wrappers.items():
        setattr(owner, name, wrap(originals[name]))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(owner, name, original)


def timed_checks(verify, spent: dict[str, float]):
    """Make verify_lemma_suite add each check's wall time to spent[fn name]."""

    def wrap(fn):
        def make(check):
            def timed(*args):
                start = time.perf_counter()
                result = check(*args)
                spent[fn] = time.perf_counter() - start
                return result

            return timed

        return make

    return patched(verify, {fn: wrap(fn) for fn in TIMED})


def balls_and_peak(verify, g, sp) -> tuple[dict[str, list[int]], float]:
    """One untimed suite run: [balls, settled vertices] of each check's
    truncated scans by check function name, and tracemalloc's peak in MB."""
    counts = {fn: [0, 0] for fn in CHECKS.values()}
    current = None

    def counting(ball):
        def counted(self, *args, **kwargs):
            order = ball(self, *args, **kwargs)
            if current is not None:
                counts[current][0] += 1
                counts[current][1] += len(order)
            return order

        return counted

    def marking(fn):
        def make(check):
            def marked(*args):
                nonlocal current
                current = fn
                try:
                    return check(*args)
                finally:
                    current = None

            return marked

        return make

    marked = {fn: marking(fn) for fn in CHECKS.values()}
    with patched(verify.DistanceBalls, {"ball": counting}), patched(verify, marked):
        tracemalloc.start()
        try:
            verify.verify_lemma_suite(g, sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return counts, peak / 1e6


def stretch_counts(verify, graph, g, sp, mode: str) -> dict:
    """One untimed verify_stretch run: how often verify called each
    per-source kernel, the bucket scans' count, slots and re-settles, and
    the vertices whose distance the repair lowers, and so settles, per
    vertex and source (None where no repair ran)."""
    calls = {name: 0 for name in STRETCH_KERNELS if hasattr(verify, name)}
    buckets = [0, 0, 0]  # scans, slots walked, re-settles
    lowered = [0, 0]  # vertices settled by the repair, vertices scanned

    def counting(name):
        def make(kernel):
            def counted(*args):
                calls[name] += 1
                return kernel(*args)

            return counted

        return make

    def walking(kernel):
        def walked(adj, dist, pending, width, slots):
            again = kernel(adj, dist, pending, width, slots)
            buckets[0] += 1
            buckets[1] += slots
            buckets[2] += again
            return again

        return walked

    def repairing(kernel):
        def repaired(adj, extra, dist_h, *table):
            dist = kernel(adj, extra, dist_h, *table)
            lowered[0] += sum(1 for d, dh in zip(dist, dist_h) if d < dh)
            lowered[1] += len(dist)
            return dist

        return repaired

    has_buckets = hasattr(graph, "bucket_lowered")
    with ExitStack() as stack:
        stack.enter_context(patched(verify, {name: counting(name) for name in calls}))
        if "repaired_distances" in calls:
            stack.enter_context(patched(verify, {"repaired_distances": repairing}))
        if has_buckets:
            # verify's H scans and the repair in graph each call their own binding
            stack.enter_context(patched(verify, {"bucket_lowered": walking}))
            stack.enter_context(patched(graph, {"bucket_lowered": walking}))
        verify.verify_stretch(g, sp, mode=mode, sample_size=STRETCH_SAMPLE)
    return {
        "kernel_calls": calls,
        "bucket_scans": buckets[0] if has_buckets else None,
        "slots_walked": buckets[1] if has_buckets else None,
        "resettled": buckets[2] if has_buckets else None,
        "repaired_share": round(lowered[0] / lowered[1], 4) if lowered[1] else None,
    }


def measure_stretch(verify, graph, g, sp, mode: str, repeat: int) -> dict:
    runs, factors, digests = [], [], set()
    for _ in range(repeat):
        report, s, factor = at_reference_speed(lambda: verify.verify_stretch(g, sp, mode=mode, sample_size=STRETCH_SAMPLE))
        runs.append(s)
        factors.append(factor)
        payload = json.dumps(report.to_json_dict(), sort_keys=True).encode()
        digests.add(hashlib.sha256(payload).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"n={g.n}: the {mode} stretch report changed between repeats")
    s = statistics.median(runs)
    budget = STRETCH_BUDGET_S.get(g.n) if mode == "all_pairs" else None
    return {
        "mode": mode,
        "pairs": report.pairs_checked,
        "s": round(s, 3),
        "runs_s": [round(t, 3) for t in runs],
        "speed_factors": [round(f, 3) for f in factors],
        "budget_s": budget,
        "within_budget": None if budget is None else s <= budget,
        "passed": report.passed,
        "report_sha256": digests.pop(),
        **stretch_counts(verify, graph, g, sp, mode),
    }


def measure(n: int, repeat: int) -> dict:
    from lightspanner import graph, verify
    from lightspanner.generate import generate_graph
    from lightspanner.spanner import build_spanner

    g = generate_graph(FAMILY, n, seed=GRAPH_SEED)
    sp, build_s, _ = at_reference_speed(lambda: build_spanner(g, EPS, K, BUILD_SEED, keep_internals=True))
    suites, factors, per_check, digests = [], [], {fn: [] for fn in TIMED}, set()
    for _ in range(repeat):
        spent: dict[str, float] = {}
        with timed_checks(verify, spent):
            report, suite_s, factor = at_reference_speed(lambda: verify.verify_lemma_suite(g, sp))
        suites.append(suite_s)
        factors.append(factor)
        for fn in TIMED:
            per_check[fn].append(spent[fn] * factor)
        payload = json.dumps(report.to_json_dict(), sort_keys=True).encode()
        digests.add(hashlib.sha256(payload).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"n={n}: the suite's report changed between repeats")
    balls, peak_mb = balls_and_peak(verify, g, sp)
    suite_s = statistics.median(suites)
    modes = ("all_pairs", "sampled") if n <= ALL_PAIRS_MAX_N else ("sampled",)
    stretch = [measure_stretch(verify, graph, g, sp, mode, repeat) for mode in modes]
    return {
        "n": n,
        "m": g.m,
        "build_s": round(build_s, 3),
        "suite_s": round(suite_s, 3),
        "suite_runs_s": [round(s, 3) for s in suites],
        "speed_factors": [round(f, 3) for f in factors],
        "budget_s": BUDGET_S.get(n),
        "within_budget": None if n not in BUDGET_S else suite_s <= BUDGET_S[n],
        "passed": report.passed,
        "report_sha256": digests.pop(),
        "path_sums_s": round(statistics.median(per_check[PATH_SUMS]), 3),
        "pivot_balls": sum(balls[fn][0] for fn in PIVOT_BALL_CHECKS),
        "peak_mb": round(peak_mb, 1),
        "checks": {
            r.name: {
                "s": round(statistics.median(per_check[CHECKS[r.name]]), 3),
                "checked": r.checked,
                "balls": balls[CHECKS[r.name]][0],
                "settled": balls[CHECKS[r.name]][1],
            }
            for r in report.results
        },
        "stretch": stretch,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(DEFAULT_N))
    ap.add_argument("--repeat", type=int, default=3, help="suite runs per graph (default 3)")
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    cpus = os.sched_getaffinity(0)
    # the reference workload and the timed runs share one CPU, so one speed factor covers both
    os.sched_setaffinity(0, {min(cpus)})
    try:
        runs = [measure(n, args.repeat) for n in args.n]
    finally:
        os.sched_setaffinity(0, cpus)
    out = {
        "schema": "bench_verify/v1",
        "params": {"family": FAMILY, "eps": EPS, "k": K, "graph_seed": GRAPH_SEED, "build_seed": BUILD_SEED},
        "python": platform.python_version(),
        "ref_nominal_s": _perfbench_run().REF_NOMINAL_S,
        "repeat": args.repeat,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    for run in runs:
        checks = ", ".join(f"{name} {c['s']} s, {c['settled']} settled" for name, c in run["checks"].items())
        print(
            f"n={run['n']}: suite {run['suite_s']} s (path sums {run['path_sums_s']} s, {checks}); "
            f"{run['pivot_balls']} pivot balls, peak {run['peak_mb']} MB"
        )
        for row in run["stretch"]:
            print(
                f"n={run['n']}: stretch {row['mode']} {row['s']} s, kernels {row['kernel_calls']}, "
                f"{row['slots_walked']} slots walked, {row['resettled']} re-settles, "
                f"repaired share {row['repaired_share']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
