import io
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lightspanner.errors import DisconnectedGraphError, GraphFormatError
from lightspanner.generate import generate_graph
from lightspanner.graph import WeightedGraph
from lightspanner.graphio import (
    read_dimacs,
    read_edge_list,
    read_graph,
    write_dimacs,
    write_edge_list,
    write_graph,
)

from lightspanner.spanner import build_spanner

from .conftest import coarse_weights, connected_graphs, loads_edge_list


@given(connected_graphs())
def test_edge_list_round_trip(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    h = read_edge_list(io.StringIO(buf.getvalue()))
    assert h.n == g.n and h.edges == g.edges


@given(connected_graphs())
def test_dimacs_round_trip(g):
    buf = io.StringIO()
    write_dimacs(g, buf)
    h = read_dimacs(io.StringIO(buf.getvalue()))
    assert h.n == g.n and h.edges == g.edges


def test_edge_list_file_round_trip(tmp_path):
    g = loads_edge_list("3\n0 1 0.5\n1 2 2.0\n")
    path = tmp_path / "g.edge_list"
    write_graph(g, path, fmt="edge_list")
    h = read_graph(path, fmt="edge_list")
    assert h.edges == g.edges


def test_edge_list_skips_comments_and_blanks():
    g = loads_edge_list("# a graph\n\n3\n# edges now\n0 1 1.0\n\n1 2 1.0\n")
    assert g.n == 3 and g.m == 2


def test_edge_list_reports_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        loads_edge_list("3\n0 1 1.0\n1 2\n")
    assert err.value.line == 3
    assert "1 2" in str(err.value)


def test_edge_list_bad_header():
    with pytest.raises(GraphFormatError, match="vertex count"):
        loads_edge_list("zero\n")


def test_edge_list_empty_input():
    with pytest.raises(GraphFormatError, match="empty"):
        loads_edge_list("")


def test_edge_list_rejects_unparsable_weight():
    with pytest.raises(GraphFormatError) as err:
        loads_edge_list("2\n0 1 heavy\n")
    assert err.value.line == 2


def test_edge_list_rejects_out_of_range():
    with pytest.raises(GraphFormatError, match="outside"):
        loads_edge_list("2\n0 5 1.0\n")


def test_edge_list_rejects_duplicates_either_orientation():
    with pytest.raises(GraphFormatError, match="duplicate"):
        loads_edge_list("3\n0 1 1.0\n1 0 2.0\n1 2 1.0\n")


def test_weights_survive_exactly():
    # repr round-trip must preserve every float bit
    g = loads_edge_list("2\n0 1 0.1\n")
    buf = io.StringIO()
    write_edge_list(g, buf)
    h = read_edge_list(io.StringIO(buf.getvalue()))
    assert h.edges[0][2] == 0.1


def test_dimacs_sparse_ids_are_relabeled():
    text = "c tiny\np sp 3 2\na 10 20 1.5\na 20 77 2.5\n"
    g = read_dimacs(io.StringIO(text))
    assert g.n == 3
    assert g.labels == (10, 20, 77)
    assert g.edges == ((0, 1, 1.5), (1, 2, 2.5))


def test_dimacs_relabeling_round_trips_labels():
    text = "p sp 3 2\na 10 20 1.5\na 20 77 2.5\n"
    g = read_dimacs(io.StringIO(text))
    buf = io.StringIO()
    write_dimacs(g, buf)
    assert "a 10 20 1.5" in buf.getvalue()
    h = read_dimacs(io.StringIO(buf.getvalue()))
    assert h.edges == g.edges and h.labels == g.labels


def test_dimacs_header_errors():
    with pytest.raises(GraphFormatError, match="missing"):
        read_dimacs(io.StringIO("c nothing here\n"))
    with pytest.raises(GraphFormatError, match="before"):
        read_dimacs(io.StringIO("a 1 2 1.0\n"))
    with pytest.raises(GraphFormatError, match="second"):
        read_dimacs(io.StringIO("p sp 2 1\np sp 2 1\na 1 2 1.0\n"))


def test_dimacs_count_mismatches():
    with pytest.raises(GraphFormatError, match="header says n"):
        read_dimacs(io.StringIO("p sp 2 3\na 1 2 1.0\na 2 3 1.0\na 1 3 1.0\n"))
    with pytest.raises(GraphFormatError, match="header says m"):
        read_dimacs(io.StringIO("p sp 2 5\na 1 2 1.0\n"))


def test_dimacs_rejects_zero_id():
    with pytest.raises(GraphFormatError, match=">= 1"):
        read_dimacs(io.StringIO("p sp 2 1\na 0 1 1.0\n"))


def test_dimacs_rejects_unknown_line():
    with pytest.raises(GraphFormatError) as err:
        read_dimacs(io.StringIO("p sp 2 1\ne 1 2 1.0\n"))
    assert err.value.line == 2


def test_read_graph_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown graph format"):
        read_graph(tmp_path / "x", fmt="gml")
    with pytest.raises(ValueError, match="unknown graph format"):
        write_graph(loads_edge_list("2\n0 1 1.0\n"), tmp_path / "x", fmt="gml")


@pytest.mark.parametrize("weight", ["1e999", "inf", "-inf", "nan", "0", "-2.5"])
@pytest.mark.parametrize(
    "reader, text",
    [(read_edge_list, "3\n0 1 1.0\n1 2 {w}\n"), (read_dimacs, "p sp 3 2\na 1 2 1.0\na 2 3 {w}\n")],
    ids=["edge_list", "dimacs"],
)
def test_readers_reject_a_weight_that_is_not_positive_and_finite(reader, text, weight):
    with pytest.raises(GraphFormatError, match="is not positive and finite") as err:
        reader(io.StringIO(text.format(w=weight)))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "reader, text, line, message",
    [
        (read_edge_list, "# ids 0..2\n3\n0 1 1.0\n1 3 1.0\n", 4, r"edge \(1, 3\) has endpoint outside 0\.\.2"),
        (read_edge_list, "3\n0 1 1.0\n2 2 1.0\n1 2 1.0\n", 3, "self loop at vertex 2"),
        (read_edge_list, "3\n0 1 1.0\n1 2 -1.0\n", 3, r"weight -1\.0 is not positive and finite"),
        (read_edge_list, "3\n0 1 1.0\n1 2 1.0\n\n1 0 2.0\n", 5, r"duplicate edge \(0, 1\)"),
        (read_dimacs, "c ids 1..3\np sp 3 3\na 1 2 1.0\na 3 3 1.0\na 2 3 1.0\n", 4, "self loop at vertex 2"),
        (read_dimacs, "p sp 3 2\na 1 2 1.0\na 2 3 0\n", 3, r"weight 0\.0 is not positive and finite"),
        (read_dimacs, "p sp 3 3\na 1 2 1.0\na 2 3 1.0\nc reversed\na 2 1 1.0\n", 5, r"duplicate edge \(0, 1\)"),
    ],
    ids=["edge_list-range", "edge_list-loop", "edge_list-weight", "edge_list-duplicate", "dimacs-loop", "dimacs-weight", "dimacs-duplicate"],
)
def test_a_constructor_rule_names_the_line_of_the_edge_that_breaks_it(reader, text, line, message):
    with pytest.raises(GraphFormatError, match=rf"^line {line}: {message}") as err:
        reader(io.StringIO(text))
    assert err.value.line == line


@pytest.mark.parametrize(
    "reader, text, line, n",
    [(read_edge_list, "0\n", 1, 0), (read_edge_list, "# none\n-3\n", 2, -3), (read_dimacs, "p sp 0 0\n", 1, 0)],
    ids=["edge_list-0", "edge_list-negative", "dimacs-0"],
)
def test_a_header_without_vertices_is_a_format_error(reader, text, line, n):
    with pytest.raises(GraphFormatError, match=f"^line {line}: graph needs at least one vertex, got n={n}$"):
        reader(io.StringIO(text))


def test_both_readers_build_through_the_constructor(monkeypatch):
    built = []
    init = WeightedGraph.__init__

    def spy(self, n, edges, labels=None):
        init(self, n, edges, labels)
        built.append(self)

    monkeypatch.setattr(WeightedGraph, "__init__", spy)
    g = loads_edge_list("3\n1 0 0.5\n1 2 2.0\n")
    h = read_dimacs(io.StringIO("p sp 3 2\na 20 10 0.5\na 20 30 2.0\n"))
    assert len(built) == 2 and built[0] is g and built[1] is h
    assert h.labels == (10, 20, 30)


@given(
    st.one_of(connected_graphs(), connected_graphs(weights=coarse_weights)),
    st.randoms(use_true_random=False),
)
def test_a_read_graph_is_the_constructed_graph(g, rnd):
    # a reader's graph equals the constructor's for edges in any order and
    # orientation, labels and rows included
    edges = [(v, u, w) if rnd.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
    rnd.shuffle(edges)
    want = WeightedGraph(g.n, edges)
    got = read_edge_list(io.StringIO(f"{g.n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)))
    assert (got.n, got.edges, got.labels, got.adj) == (want.n, want.edges, want.labels, want.adj)

    labels = sorted(rnd.sample(range(1, 10 * g.n), g.n))
    want = WeightedGraph(g.n, edges, labels=labels)
    arcs = "".join(f"a {labels[u]} {labels[v]} {w!r}\n" for u, v, w in edges)
    got = read_dimacs(io.StringIO(f"p sp {g.n} {len(edges)}\n" + arcs))
    assert (got.n, got.edges, got.labels, got.adj) == (want.n, want.edges, want.labels, want.adj)


def _unsorted_edge_list(n, seed):
    """The edge_list text of a connected graph on n vertices, its lines in
    random order and each edge in a random orientation."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted(p)) for p in zip(order, order[1:])}
    while len(pairs) < 2 * n:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    lines = []
    for u, v in sorted(pairs):
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v} {rng.randint(1, 64) / 8}")
    rng.shuffle(lines)
    return "\n".join([str(n), *lines]) + "\n"


def test_edge_list_reader_keeps_one_int_per_vertex_id(tmp_path):
    # CPython caches ints up to 256 only, so every parse of a larger id makes a new one
    path = tmp_path / "g.edge_list"
    path.write_text(_unsorted_edge_list(400, seed=5))
    g = read_graph(path)
    one = {x: x for u, v, _ in g.edges for x in (u, v)}
    assert len(one) == g.n
    assert all(u is one[u] and v is one[v] for u, v, _ in g.edges)
    assert all(x is one[x] for row in g.adj for x, _ in row)


@pytest.mark.parametrize("unsorted", [False, True], ids=["sorted", "unsorted"])
def test_scaled_shares_the_hosts_keys_and_one_float_per_edge(unsorted):
    # the file lists edges in its own order and the graph in (u, v) order:
    # a scaled weight paired with the wrong edge shows on unsorted input
    text = _unsorted_edge_list(300, seed=8)
    if not unsorted:
        buf = io.StringIO()
        write_edge_list(loads_edge_list(text), buf)
        text = buf.getvalue()
    g = loads_edge_list(text)
    factor = 0.37
    gn = g.scaled(factor)
    assert len(gn.edges) == len(g.edges)
    for (u, v, w), (hu, hv, hw) in zip(gn.edges, g.edges):
        assert u is hu and v is hv
        assert w == hw * factor
        assert gn.weight_of(v, u) is w
        assert any(x is v and wx is w for x, wx in gn.adj[u])


def test_a_graph_retains_one_tuple_and_one_float_per_edge():
    # a (u, v, w) tuple, its float and its slot in ``edges`` take 96 bytes on
    # 64-bit CPython, less where a free list recycles a tuple; a second table
    # of the edges, such as a dict keyed by (u, v), adds 45 to 90 more
    buf = io.StringIO()
    write_edge_list(generate_graph("geometric_unit_square", 2048, seed=3), buf)
    text = buf.getvalue()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = loads_edge_list(text)
        loaded = tracemalloc.get_traced_memory()[0]
        gn = g.scaled(0.5)
        scaled = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert gn.m == g.m > 10_000
    assert (loaded - start) / g.m <= 130
    assert (scaled - loaded) / g.m <= 110


def test_a_scanned_graph_retains_two_row_entries_and_one_float_per_edge():
    # a row entry (v, w) takes 56 bytes and its list slot 8, a float 24, so an
    # edge keeps 152 bytes plus its share of the per-vertex lists, about 172
    # here; the (u, v, w) tuple of ``edges`` and its slot would add 72 more
    buf = io.StringIO()
    write_edge_list(generate_graph("geometric_unit_square", 2048, seed=3), buf)
    text = buf.getvalue()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = loads_edge_list(text)
        g.adj
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.m > 10_000 and g._edges is None
    assert (kept - start) / g.m <= 185


def test_a_build_peaks_below_a_bound_per_edge():
    # the normalized copy keeps only its rows once it scans, and the shallow-
    # light tree's tour reads the tree's own edge tuples: about 380 bytes per
    # edge here, against about 470 with the copy's tuples and the tour's rows
    g = generate_graph("geometric_unit_square", 2048, seed=3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build_spanner(g, 0.05, 2, 1, keep_internals=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m > 10_000 and g._adj is None
    assert (peak - start) / g.m <= 420


def test_the_dimacs_reader_peaks_near_the_edge_list_reader():
    # each arc is one (u, v, w) tuple over shared id ints, its line is kept in
    # an array and its tuple is freed as the graph takes it: about 215 bytes
    # per edge against 195 for edge_list; a (u, v, w, line) tuple per arc that
    # lives through construction took 375
    g = generate_graph("geometric_unit_square", 2048, seed=3)
    buf = io.StringIO()
    write_dimacs(g, buf)
    stream = io.StringIO(buf.getvalue())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        h = read_dimacs(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == g
    assert (peak - start) / g.m <= 260


def test_a_huge_header_with_one_edge_allocates_nothing_of_its_size(tmp_path):
    # a table sized by the header's 2 000 000 ids would take about 70 MB
    path = tmp_path / "g.edge_list"
    path.write_text("2000000\n0 1 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError):
            read_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
