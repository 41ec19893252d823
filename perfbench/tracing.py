"""In-memory spans around calls into lightspanner's layers, and the per-layer
metrics derived from them.

Tracing never edits the package: ``install`` rebinds the names under which
each calling module imported a layer's public function (for example
``lightspanner.spanner.phase2_paths`` or ``lightspanner.nets.scan``) to a
wrapper that records a span and calls the original. ``WeightedGraph`` is the
one exception: rebinding a class name would break ``isinstance`` checks, so
its ``__init__`` is wrapped on the class instead.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span in the same list, or -1. Calls are nested on one thread,
so the children of a span never overlap and its self time is its duration
minus the sum of its children's durations.
"""
from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

SCAN_CALLERS = ("spanner", "nets", "trees", "verify")
PHASE_TAGS = ("H0", "P2_REP", "P2_DIRECT", "P2_TOP", "SLT")

# (module under lightspanner, attribute in it, span name)
WRAPPED = (
    ("cli", "cmd_build", "cli.build"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "generate_graph", "generate.generate_graph"),
    ("cli", "read_graph", "graphio.read_graph"),
    ("cli", "write_graph", "graphio.write_graph"),
    ("cli", "build_spanner", "spanner.build_spanner"),
    ("cli", "spanner_from_json_dict", "spanner.spanner_from_json_dict"),
    ("cli", "verify_stretch", "verify.verify_stretch"),
    ("cli", "verify_lightness", "verify.verify_lightness"),
    ("spanner", "normalize", "spanner.normalize"),
    ("spanner", "sample_levels", "spanner.sample_levels"),
    ("spanner", "phase2_paths", "spanner.phase2_paths"),
    ("spanner", "build_net_hierarchy", "nets.build_net_hierarchy"),
    ("spanner", "slt_forest", "trees.slt_forest"),
    ("nets", "greedy_delta_net", "nets.greedy_delta_net"),
    ("spanner", "mst", "trees.mst"),
    ("nets", "mst", "trees.mst"),
    ("verify", "mst", "trees.mst"),
)


def _scan_attrs(caller):
    def attrs(args, kwargs, result):
        radius = kwargs.get("radius", args[3] if len(args) > 3 else None)
        return {"caller": caller, "n": args[0], "truncated": radius is not None, "settled": len(result[5])}

    return attrs


def _result_counts(name, result):
    """Counts read off a layer's return value, keyed by metric name."""
    if name == "spanner.build_spanner":
        tags = Counter(result.phase_tag.values())
        counts = {f"spanner.edges.{tag}": tags[tag] for tag in PHASE_TAGS}
        counts["spanner.n"] = result.host.n
        return counts
    if name == "nets.build_net_hierarchy":
        return {"nets.levels": result.i_max + 1, "nets.h0_edges": len(result.h0_edges)}
    if name == "verify.verify_stretch":
        return {"verify.verify_stretch.pairs": result.pairs_checked}
    if name == "verify.verify_lemma_suite":
        return {"verify.verify_lemma_suite.checked": sum(r.checked for r in result.results)}
    return None


class Recorder:
    """Collects spans in memory; ``enabled`` pauses recording without unwrapping."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        rec = self
        if attrs is None:
            attrs = lambda args, kwargs, result: _result_counts(name, result)  # noqa: E731

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def install(rec: Recorder) -> None:
    """Rebind every traced name in the imported lightspanner modules."""
    import importlib

    from lightspanner.graph import WeightedGraph

    for module, attr, name in WRAPPED:
        mod = importlib.import_module(f"lightspanner.{module}")
        setattr(mod, attr, rec.wrap(getattr(mod, attr), name))
    for caller in SCAN_CALLERS:
        mod = importlib.import_module(f"lightspanner.{caller}")
        mod.scan = rec.wrap(mod.scan, "graph.scan", _scan_attrs(caller))
    WeightedGraph.__init__ = rec.wrap(WeightedGraph.__init__, "graph.WeightedGraph")


def load_spans(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the spans of several processes (one list each)."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    scan = {c: {"calls": 0, "truncated_calls": 0, "s": 0.0, "settled": 0, "allocated": 0} for c in SCAN_CALLERS}
    spanner_scan_us: list[float] = []
    counts: dict[str, int] = defaultdict(int)
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, attrs in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_s[name] += dur - child_s[idx]
            if name == "graph.scan":
                row = scan[attrs["caller"]]
                row["calls"] += 1
                row["truncated_calls"] += attrs["truncated"]
                row["s"] += dur
                row["settled"] += attrs["settled"]
                row["allocated"] += attrs["n"]
                if attrs["caller"] == "spanner":
                    spanner_scan_us.append(dur * 1e6)
            elif attrs is not None:
                for key, value in attrs.items():
                    counts[key] += value

    out: dict[str, float] = {}
    for caller, row in scan.items():
        prefix = f"graph.scan.{caller}"
        out[f"{prefix}.calls"] = row["calls"]
        out[f"{prefix}.truncated_calls"] = row["truncated_calls"]
        out[f"{prefix}.s"] = row["s"]
        out[f"{prefix}.settled"] = row["settled"]
        out[f"{prefix}.ball_fraction"] = row["settled"] / row["allocated"] if row["allocated"] else 0.0
    cuts = statistics.quantiles(spanner_scan_us, n=100, method="inclusive") if len(spanner_scan_us) > 1 else [0.0] * 99
    out["graph.scan.spanner.p50_us"] = cuts[49]
    out["graph.scan.spanner.p99_us"] = cuts[98]
    for name in ("graph.WeightedGraph", "trees.mst", "trees.slt_forest", "nets.greedy_delta_net"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    for name in (
        "generate.generate_graph",
        "graphio.read_graph",
        "graphio.write_graph",
        "nets.build_net_hierarchy",
        "spanner.build_spanner",
        "spanner.normalize",
        "spanner.sample_levels",
        "spanner.phase2_paths",
        "spanner.spanner_from_json_dict",
        "verify.verify_stretch",
        "verify.verify_lightness",
        "verify.verify_lemma_suite",
    ):
        out[f"{name}.s"] = total[name]
    out["spanner.build_spanner.self_s"] = self_s["spanner.build_spanner"]
    built = counts["spanner.n"]
    out["spanner.phase2_paths.per_vertex_us"] = total["spanner.phase2_paths"] / built * 1e6 if built else 0.0
    out["cli.build.self_s"] = self_s["cli.build"]
    out["cli.verify.self_s"] = self_s["cli.verify"]
    for key in ("nets.levels", "nets.h0_edges", "verify.verify_stretch.pairs", "verify.verify_lemma_suite.checked"):
        out[key] = counts[key]
    for tag in PHASE_TAGS:
        out[f"spanner.edges.{tag}"] = counts[f"spanner.edges.{tag}"]
    return out
