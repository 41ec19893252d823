"""Reading and writing graphs in the two supported text formats.

edge_list: first meaningful line is the vertex count n, then one
"u v w" line per edge with 0-based ids. '#' starts a comment.

dimacs: "c ..." comments, one "p sp <n> <m>" header, then "a u v w"
arc lines with 1-based (or arbitrary sparse positive) ids. Ids are
re-indexed to 0..n-1 on load; the sorted original ids are kept on the
graph as ``labels`` and used again when writing.

The readers only parse: each hands its edges, as a generator, to
``WeightedGraph``, which checks ids, self loops, weights, duplicates and
connectivity, one edge at a time as it takes it. A ValueError it raises
is raised again as a GraphFormatError naming the line of the edge yielded
last. The dimacs reader parses the whole file before it can relabel, so
it checks the header's n and m first; it holds each arc as one (u, v, w)
tuple, with its line number in an array, and frees the tuple as the graph
takes it. Each reader yields one int object per vertex id, which the edges
and rows share; neither reader sizes a table by the header's n.
"""
from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from typing import IO, Iterable, Iterator

from .errors import GraphFormatError
from .graph import Edge, WeightedGraph

FORMATS = ("edge_list", "dimacs")


@contextmanager
def _opened(source, mode: str) -> Iterator[IO[str]]:
    """A path opened as UTF-8 text and closed on exit, or a stream left open."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8") as stream:
            yield stream
    else:
        yield source


def _meaningful_lines(stream: IO[str], comment_prefixes: tuple[str, ...]) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefixes):
            continue
        yield lineno, line


def read_edge_list(source) -> WeightedGraph:
    with _opened(source, "r") as stream:
        lines = _meaningful_lines(stream, ("#",))
        try:
            lineno, header = next(lines)
        except StopIteration:
            raise GraphFormatError("empty edge_list input") from None
        try:
            n = int(header.split()[0])
        except ValueError:
            raise GraphFormatError(f"expected vertex count, got {header!r}", lineno) from None

        def parsed() -> Iterator[Edge]:
            nonlocal lineno
            ids: dict[int, int] = {}  # one int object per id seen, shared by every edge it ends
            for lineno, line in lines:
                parts = line.split()
                if len(parts) != 3:
                    raise GraphFormatError(f"expected 'u v w', got {line!r}", lineno)
                try:
                    u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError:
                    raise GraphFormatError(f"could not parse edge {line!r}", lineno) from None
                yield ids.setdefault(u, u), ids.setdefault(v, v), w

        try:
            return WeightedGraph(n, parsed())
        except ValueError as err:  # the graph checks each edge as it takes it
            raise GraphFormatError(str(err), lineno) from None


def edge_list_lines(n: int, edges: Iterable[Edge]) -> Iterator[str]:
    """The lines of the edge_list text of n vertices and (u, v, w) edges, in
    the order given. A weight is written as ``format`` gives it: a float by
    its repr, a string, such as a weight's repr rendered already, as it is."""
    yield f"{n}\n"
    for u, v, w in edges:
        yield f"{u} {v} {w}\n"


def write_edge_list(g: WeightedGraph, dest) -> None:
    with _opened(dest, "w") as stream:
        stream.writelines(edge_list_lines(g.n, g.iter_edges()))


def read_dimacs(source) -> WeightedGraph:
    with _opened(source, "r") as stream:
        n = m = None
        raw_edges: list[Edge] = []  # (u, v, w) with the file's ids
        arc_lines = array("q")  # the line of each arc, kept out of its tuple
        ids: dict[int, int] = {}  # one int object per id seen, shared by every arc it ends
        for lineno, line in _meaningful_lines(stream, ("c",)):
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise GraphFormatError("second 'p' header", lineno)
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"expected 'p sp n m', got {line!r}", lineno)
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise GraphFormatError(f"bad 'p' header {line!r}", lineno) from None
                header_line = lineno
            elif parts[0] == "a":
                if n is None:
                    raise GraphFormatError("arc line before 'p' header", lineno)
                if len(parts) != 4:
                    raise GraphFormatError(f"expected 'a u v w', got {line!r}", lineno)
                try:
                    u, v, w = int(parts[1]), int(parts[2]), float(parts[3])
                except ValueError:
                    raise GraphFormatError(f"could not parse arc {line!r}", lineno) from None
                if u < 1 or v < 1:
                    raise GraphFormatError(f"dimacs ids must be >= 1 in {line!r}", lineno)
                raw_edges.append((ids.setdefault(u, u), ids.setdefault(v, v), w))
                arc_lines.append(lineno)
            else:
                raise GraphFormatError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p sp n m' header")
    if len(ids) > n:
        raise GraphFormatError(f"{len(ids)} distinct ids but header says n={n}")
    if len(ids) < n:
        # header promises more vertices than the arcs mention
        raise GraphFormatError(f"only {len(ids)} ids seen but header says n={n}")
    if m != len(raw_edges):
        raise GraphFormatError(f"header says m={m} but {len(raw_edges)} arcs found")
    labels = sorted(ids)
    index = {orig: i for i, orig in enumerate(labels)}
    lineno = header_line  # named by an error of n itself, before any arc

    def relabelled() -> Iterator[Edge]:
        nonlocal lineno
        # popped from the end, each arc's tuple is freed as the graph takes it
        raw_edges.reverse()
        arc_lines.reverse()
        while raw_edges:
            u, v, w = raw_edges.pop()
            lineno = arc_lines.pop()
            yield index[u], index[v], w

    try:
        return WeightedGraph(n, relabelled(), labels)
    except ValueError as err:  # the graph checks each edge as it takes it
        raise GraphFormatError(str(err), lineno) from None


def write_dimacs(g: WeightedGraph, dest) -> None:
    labels = g.labels if g.labels is not None else tuple(range(1, g.n + 1))
    with _opened(dest, "w") as stream:
        stream.write(f"p sp {g.n} {g.m}\n")
        for u, v, w in g.iter_edges():
            stream.write(f"a {labels[u]} {labels[v]} {w!r}\n")


def read_graph(path, fmt: str = "edge_list") -> WeightedGraph:
    if fmt not in FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    return read_edge_list(path) if fmt == "edge_list" else read_dimacs(path)


def write_graph(g: WeightedGraph, path, fmt: str = "edge_list") -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    (write_edge_list if fmt == "edge_list" else write_dimacs)(g, path)

