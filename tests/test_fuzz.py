"""Malformed input never escapes the readers and the spanner loader as a crash.

Arbitrary text goes into both graph readers and arbitrary JSON values into
each field of a valid spanner payload. The only exceptions allowed out are
SpannerError (and its GraphFormatError and DisconnectedGraphError kinds)
and ValueError, which the CLI turns into exit 2.
"""
import copy
import functools
import io

import pytest
from hypothesis import given, settings, strategies as st

from lightspanner.errors import SpannerError
from lightspanner.generate import generate_graph
from lightspanner.graphio import read_dimacs, read_edge_list
from lightspanner.spanner import build_spanner, spanner_from_json_dict

EXPECTED = (SpannerError, ValueError)

# lines built from the tokens both formats use, so a case often gets past
# the header and into the edge checks
tokens = st.sampled_from(["p", "sp", "a", "c", "#", "0", "1", "2", "3", "-1", "1e999", "nan", "0.5", "x", "99999999999999999999"])
lines = st.lists(tokens, max_size=5).map(" ".join)
token_text = st.lists(lines, max_size=8).map("\n".join)
graph_text = st.one_of(st.text(max_size=60), token_text)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # too large for a float, either sign
    st.integers(min_value=2**1024, max_value=10**500),
    st.integers(min_value=-(10**500), max_value=-(2**1024)),
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10,
)


@settings(max_examples=200)
@pytest.mark.parametrize("reader", [read_edge_list, read_dimacs], ids=["edge_list", "dimacs"])
@given(text=graph_text)
def test_graph_readers_raise_only_expected_errors(reader, text):
    try:
        reader(io.StringIO(text))
    except EXPECTED:
        pass


@functools.lru_cache(maxsize=None)
def _built():
    sp = build_spanner(generate_graph("path", 30, seed=1), 0.05, 1, 0)
    return sp.host, sp.to_json_dict()


# a scalar on its own half the time, so each special scalar, such as an int
# too large for a float, reaches every field
field_values = st.one_of(json_scalars, json_values)


@settings(max_examples=60)
@pytest.mark.parametrize("field", ["schema", "kind", "eps", "k", "seed", "scale", "n", "edges"])
@given(value=field_values)
def test_loader_raises_only_expected_errors_for_any_field_value(field, value):
    host, valid = _built()
    payload = copy.deepcopy(valid)
    payload[field] = value
    try:
        spanner_from_json_dict(payload, host)
    except EXPECTED:
        pass


@settings(max_examples=60)
@pytest.mark.parametrize("position", range(4))
@given(value=field_values)
def test_loader_raises_only_expected_errors_for_any_edge_entry(position, value):
    host, valid = _built()
    payload = copy.deepcopy(valid)
    payload["edges"][0][position] = value
    try:
        spanner_from_json_dict(payload, host)
    except EXPECTED:
        pass
