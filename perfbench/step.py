"""One benchmark step in a fresh process, optionally traced.

    python3 perfbench/step.py [--spans FILE --run-id ID] cli <lightspanner CLI args>
    python3 perfbench/step.py [--spans FILE --run-id ID] lemma --eps E --k K --seed S --graph PATH

``cli`` runs ``lightspanner.cli.main`` in this process, so that the traced
wrappers see its calls. ``lemma`` reads the graph, builds its spanner with
``keep_internals=True`` and runs ``verify_lemma_suite`` on it. Only the suite
is timed and traced; it prints one JSON line with the suite time, the number
of checked claims, whether all passed, and the sha256 of the build's
canonical JSON so the caller can compare it with the CLI build. The package
is found through PYTHONPATH.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import tracing


def canonical_sha256(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_lemma(args: argparse.Namespace, rec: tracing.Recorder | None) -> int:
    from lightspanner import build_spanner, read_graph
    from lightspanner.verify import verify_lemma_suite

    suite = rec.wrap(verify_lemma_suite, "verify.verify_lemma_suite") if rec else verify_lemma_suite
    if rec:
        rec.enabled = False
    g = read_graph(args.graph)
    sp = build_spanner(g, args.eps, args.k, args.seed, keep_internals=True)
    if rec:
        rec.enabled = True
    start = time.perf_counter()
    report = suite(g, sp)
    lemma_s = time.perf_counter() - start
    print(json.dumps({
        "lemma_s": lemma_s,
        "checked": sum(r.checked for r in report.results),
        "passed": report.passed,
        "spanner_sha256": canonical_sha256(sp.to_json_dict()),
    }))
    return 0 if report.passed else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="step.py")
    parser.add_argument("--spans", default=None, help="write recorded spans to this JSON file")
    parser.add_argument("--run-id", default="")
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("cli")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("lemma")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--graph", required=True)
    args = parser.parse_args(argv)

    rec = None
    if args.spans:
        rec = tracing.Recorder(args.run_id)
        tracing.install(rec)
    try:
        if args.step == "lemma":
            return run_lemma(args, rec)
        from lightspanner import cli

        return cli.main(args.cli_args)
    finally:
        if rec:
            rec.write(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
