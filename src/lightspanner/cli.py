"""Command-line front end: generate, build, verify, inspect, sweep.

Artifacts use fixed names inside --output-dir (graph.<fmt>, spanner.json,
spanner.edge_list, stretch_report.json, lightness_report.json, sweep.csv) so
pipelines can chain commands without passing filenames around. All writes are
atomic (temp file + rename) and byte-deterministic for a given command line
and inputs: JSON is dumped with sorted keys and no timestamps.

Exit codes: 0 success (and every requested verification passed), 1 a
verification reported violations, 2 an error in any stage. A closed stdout
(``lightspanner inspect ... | head -1``) is none of these: the rest of the
output is dropped and the command keeps its own exit code, as ``--help``
(0) and a usage error (2) keep theirs.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import tempfile
import time
from typing import IO, Iterable, Iterator, Sequence

from .errors import SpannerError
from .generate import FAMILIES, generate_graph
from .graphio import FORMATS, edge_list_lines, read_graph, write_graph
from .nets import EPS_SAFE_LIMIT, check_eps
from .spanner import PHASES, Spanner, build_spanner, build_wmax_spanner, spanner_from_json_dict
from .verify import additive_stretch_constant, verify_lightness, verify_stretch

SWEEP_HEADER = (
    "n", "k", "eps", "seed", "family", "size", "lightness", "worst_mult", "worst_slack", "bound", "runtime_ms"
)


# mkstemp creates files readable by the owner only; artifacts get the mode a
# plain open() would give them. Read once, since reading the umask sets it.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` to ``path`` through a uniquely named
    temp file in the same directory, so concurrent writers never share a temp
    file and readers see either the old or the new content, also when the
    chunks fail part way through."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_json(path: str, payload: dict) -> None:
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n",))


def _spanner_json_chunks(head: dict, rows: Sequence[tuple[int, int, str, str]]) -> Iterator[str]:
    """The text ``_dump_json`` writes for ``Spanner.to_json_dict``, one chunk per edge.

    With an indent, json encodes in pure Python, so only the head goes
    through json; each row (u, v, repr of the weight, tag) is written as
    json writes it: ints and floats by repr, the tag (a plain ASCII name)
    in quotes. "edges" sorts first.
    """
    tail = json.dumps(head, indent=2, sort_keys=True)[2:]  # without the opening "{\n"
    if not rows:
        yield '{\n  "edges": [],\n' + tail + "\n"
        return
    sep = '{\n  "edges": [\n'
    for u, v, w, tag in rows:
        yield f'{sep}    [\n      {u},\n      {v},\n      {w},\n      "{tag}"\n    ]'
        sep = ",\n"
    yield "\n  ],\n" + tail + "\n"


def _write(stream: IO[str], text: str) -> None:
    """Write ``text`` to ``stream`` and flush it, so a reader that has gone away
    (EPIPE) shows here rather than in the flush at exit. From then on the
    stream points at os.devnull: the command runs on and keeps its exit code."""
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _say(line: str) -> None:
    _write(sys.stdout, line + "\n")


class _Parser(argparse.ArgumentParser):
    """Help and usage text goes through ``_write``: with no reader, ``--help``
    still exits 0 and a usage error 2. Subparsers inherit the class."""

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        if message:
            _write(file or sys.stderr, message)


def _load_spanner_payload(path: str) -> dict:
    """The JSON object in a spanner file; any other payload is a SpannerError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise SpannerError(f"spanner file {path} nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise SpannerError(f"spanner payload must be a JSON object, got {type(raw).__name__}")
    return raw


def _write_spanner_artifacts(sp: Spanner, out_dir: str) -> dict:
    """Write spanner.json and spanner.edge_list from one pass over the edge
    rows: each weight is looked up and rendered once, and the head is summed
    from the rows. Returns spanner.json's head, from which the summary is printed."""
    weights: dict[str, list[float]] = {tag: [] for tag in PHASES}
    rows = []
    for u, v, w, tag in sp.edge_rows():
        weights[tag].append(w)
        rows.append((u, v, repr(w), tag))
    head = sp.json_head(weights)
    _atomic_write(os.path.join(out_dir, "spanner.json"), _spanner_json_chunks(head, rows))
    lines = edge_list_lines(sp.host.n, ((u, v, w) for u, v, w, _ in rows))
    _atomic_write(os.path.join(out_dir, "spanner.edge_list"), lines)
    return head


def _print_spanner_summary(head: dict) -> None:
    _say(f"spanner: kind={head['kind']} n={head['n']} size={head['size']} weight={head['weight']:.6g}")
    for tag, phase in head["per_phase"].items():
        if phase["count"]:
            _say(f"  {tag}: {phase['count']} edges, weight {phase['weight']:.6g}")


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate_graph(
        args.family,
        args.n,
        seed=args.seed,
        p=args.p,
        radius=args.radius,
        rows=args.rows,
        cols=args.cols,
        weight_range=(args.weight_lo, args.weight_hi),
    )
    path = os.path.join(args.output_dir, f"graph.{args.format}")
    buf = io.StringIO()
    write_graph(g, buf, args.format)
    _atomic_write(path, (buf.getvalue(),))
    _say(f"wrote {path}: n={g.n} m={g.m} weight={g.total_weight():.6g}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    # refuse a build whose stretch bound no verify can evaluate, before it
    # writes artifacts; eps is checked first, since the bound divides by it
    check_eps(args.eps, args.unsafe_eps)
    additive_stretch_constant(args.eps, args.k)
    g = read_graph(args.input, args.format)
    sp = build_spanner(g, args.eps, args.k, args.seed, unsafe_eps=args.unsafe_eps, keep_internals=False)
    _print_spanner_summary(_write_spanner_artifacts(sp, args.output_dir))
    return 0


def cmd_build_wmax(args: argparse.Namespace) -> int:
    g = read_graph(args.input, args.format)
    sp = build_wmax_spanner(g, args.eps)
    _print_spanner_summary(_write_spanner_artifacts(sp, args.output_dir))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.input, args.format)
    sp = spanner_from_json_dict(_load_spanner_payload(args.spanner), g)
    stretch = verify_stretch(g, sp, mode=args.mode, sample_size=args.sample_size, seed=args.seed)
    lightness = verify_lightness(g, sp)
    _dump_json(os.path.join(args.output_dir, "stretch_report.json"), stretch.to_json_dict())
    _dump_json(os.path.join(args.output_dir, "lightness_report.json"), lightness.to_json_dict())
    _say(
        f"stretch: {'PASS' if stretch.passed else 'FAIL'} "
        f"(pairs={stretch.pairs_checked} worst_mult={stretch.worst_mult_stretch:.6g} "
        f"worst_slack={stretch.worst_additive_slack:.6g} bound={stretch.bound_used:.6g})"
    )
    _say(
        f"lightness: {'PASS' if lightness.passed else 'FAIL'} "
        f"(size={lightness.size} lightness={lightness.lightness:.6g})"
    )
    return 0 if stretch.passed and lightness.passed else 1


def cmd_inspect(args: argparse.Namespace) -> int:
    payload: dict = {}
    if args.input:
        g = read_graph(args.input, args.format)
        if not g.m:
            raise ValueError("graph has no edges")
        weights = [w for _, _, w in g.iter_edges()]
        payload["graph"] = {
            "n": g.n,
            "m": g.m,
            "total_weight": g.total_weight(),
            "min_weight": min(weights),
            "max_weight": max(weights),
        }
    if args.spanner:
        raw = _load_spanner_payload(args.spanner)
        payload["spanner"] = {
            key: raw.get(key)
            for key in ("kind", "n", "size", "weight", "eps", "k", "seed", "scale", "per_phase")
        }
    if not payload:
        raise SpannerError("inspect needs --input and/or --spanner")
    _say(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def run_sweep(
    *,
    families: Sequence[str],
    ns: Sequence[int],
    ks: Sequence[int],
    epss: Sequence[float],
    seeds: Sequence[int],
    mode: str = "sampled",
    sample_size: int = 64,
    unsafe_eps: bool = False,
) -> Iterator[dict]:
    """Build and verify every grid cell, yielding one row dict per cell.

    Cells run in a fixed nested order (family, n, k, eps, seed) so CSV
    output is deterministic. The row's runtime_ms measures construction
    only; verification cost depends on the mode and is not the artifact
    under test. A cell whose stretch check fails raises SpannerError
    instead of yielding its row.
    """
    for family, n, k, eps, seed in itertools.product(families, ns, ks, epss, seeds):
        g = generate_graph(family, n, seed=seed)
        start = time.perf_counter()
        sp = build_spanner(g, eps, k, seed, unsafe_eps=unsafe_eps, keep_internals=False)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        stretch = verify_stretch(g, sp, mode=mode, sample_size=sample_size, seed=seed)
        lightness = verify_lightness(g, sp)
        if not stretch.passed:
            raise SpannerError(
                f"stretch violation in sweep cell (family={family} n={n} k={k} eps={eps} seed={seed})"
            )
        yield {
            "n": n,
            "k": k,
            "eps": eps,
            "seed": seed,
            "family": family,
            "size": sp.size,
            "lightness": lightness.lightness,
            "worst_mult": stretch.worst_mult_stretch,
            "worst_slack": stretch.worst_additive_slack,
            "bound": stretch.bound_used,
            "runtime_ms": runtime_ms,
            # extra keys for callers; not part of the CSV schema
            "h0_weight": lightness.per_phase.get("H0", (0, 0.0))[1],
            "mst_weight": lightness.mst_weight,
        }


def cmd_sweep(args: argparse.Namespace) -> int:
    """Print each cell's line as its row arrives, then write sweep.csv; a
    failing cell stops the sweep before the CSV is written."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_HEADER, extrasaction="ignore")
    writer.writeheader()
    cells = 0
    for row in run_sweep(
        families=args.families,
        ns=args.ns,
        ks=args.ks,
        epss=args.epss,
        seeds=args.seeds,
        mode=args.mode,
        sample_size=args.sample_size,
        unsafe_eps=args.unsafe_eps,
    ):
        writer.writerow(row)
        cells += 1
        _say(
            f"cell family={row['family']} n={row['n']} k={row['k']} eps={row['eps']} seed={row['seed']}: "
            f"size={row['size']} lightness={row['lightness']:.3f} ({row['runtime_ms']:.0f} ms)"
        )
    out_path = os.path.join(args.output_dir, "sweep.csv")
    _atomic_write(out_path, (buf.getvalue(),))
    _say(f"wrote {out_path}: {cells} cells")
    return 0


def _add_io_flags(p: argparse.ArgumentParser, *, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True, help="graph file to read")
    p.add_argument("--format", choices=FORMATS, default="edge_list", help="graph file format")
    p.add_argument("--output-dir", default=".", help="directory for artifacts")


def _add_eps_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, required=True, help=f"stretch parameter, in (0, {EPS_SAFE_LIMIT})")
    p.add_argument(
        "--unsafe-eps",
        action="store_true",
        help=f"accept eps up to 1 (guarantee thresholds assume eps < {EPS_SAFE_LIMIT})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lightspanner",
        description="Construct and certify light near-additive graph spanners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a connected weighted graph")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=None, help="edge probability (erdos_renyi)")
    p.add_argument("--radius", type=float, default=None, help="connection radius (geometric)")
    p.add_argument("--rows", type=int, default=None, help="grid rows")
    p.add_argument("--cols", type=int, default=None, help="grid cols")
    p.add_argument("--weight-lo", type=float, default=1.0)
    p.add_argument("--weight-hi", type=float, default=2.0)
    _add_io_flags(p, needs_input=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build the hierarchical spanner")
    _add_io_flags(p)
    _add_eps_flags(p)
    p.add_argument("--k", type=int, required=True, help="number of sampled levels, >= 1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("build-wmax", help="build the heavy-edge variant spanner")
    _add_io_flags(p)
    p.add_argument("--eps", type=float, required=True, help="stretch parameter, > 0")
    p.set_defaults(func=cmd_build_wmax)

    p = sub.add_parser("verify", help="verify a spanner against its graph")
    _add_io_flags(p)
    p.add_argument("--spanner", required=True, help="spanner.json produced by build")
    p.add_argument("--mode", choices=("all_pairs", "sampled"), default="all_pairs")
    p.add_argument("--sample-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help="source sample seed (sampled mode)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="summarize a graph and/or spanner file")
    p.add_argument("--input", default=None, help="graph file to read")
    p.add_argument("--format", choices=FORMATS, default="edge_list")
    p.add_argument("--spanner", default=None, help="spanner.json to read")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "sweep",
        help="build+verify a parameter grid, writing sweep.csv",
        description="Build and verify every cell of a parameter grid and write one row per cell "
        "to sweep.csv in --output-dir, replacing the file a previous sweep wrote there.",
    )
    p.add_argument("--families", nargs="+", choices=FAMILIES, required=True)
    p.add_argument("--ns", nargs="+", type=int, required=True)
    p.add_argument("--ks", nargs="+", type=int, required=True)
    p.add_argument("--epss", nargs="+", type=float, required=True)
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--mode", choices=("all_pairs", "sampled"), default="sampled")
    p.add_argument("--sample-size", type=int, default=64)
    p.add_argument("--unsafe-eps", action="store_true")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except SpannerError as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error in {args.command}: invalid parameter: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error in {args.command}: i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
