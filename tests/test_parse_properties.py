"""Property tests of the parsers: both serialisations parse back to the same
labelled graph, and no text or bytes make parse_graph raise anything but
ParseError."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stag import Graph, ParseError, parse_graph, to_edgelist, to_json  # noqa: E402

# the same examples on every run; the counts keep tier-1 short
_settings = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# an edge-list token: no whitespace or line break, not a comment, and no
# leading U+FEFF, which parse_graph drops: the names to_edgelist writes
_TOKEN = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=4
).filter(lambda t: not t.startswith(("#", "\ufeff")))


@st.composite
def named_graphs(draw, names, isolated):
    """A simple graph on shuffled integer vertices with shuffled edge ids
    and distinct names. Without isolated, every vertex is an endpoint unless
    there is no edge, as an edge list writes an edgeless graph as its vertex
    names and leaves out a vertex beside edges that lies on none."""
    pool = draw(st.lists(st.integers(-5, 40), min_size=2, max_size=8, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda p: p[0] != p[1]),
        max_size=14, unique_by=frozenset,
    ))
    ids = draw(st.lists(st.integers(0, 60), min_size=len(pairs), max_size=len(pairs), unique=True))
    vertices = sorted({x for p in pairs for x in p}) if pairs and not isolated else pool
    labels = draw(st.lists(names, min_size=len(vertices), max_size=len(vertices), unique=True))
    return Graph(vertices, [(k, u, v) for k, (u, v) in zip(ids, pairs)], dict(zip(vertices, labels)))


def _labelled(g):
    """Vertex names in vertex order and edges as name pairs in edge order."""
    return [g.names[v] for v in g.vertices], [{g.names[e.u], g.names[e.v]} for e in g.edges]


@_settings
@given(named_graphs(st.text(max_size=4), isolated=True))
def test_json_parses_back_to_the_same_graph_and_bytes(g):
    text = to_json(g)
    back = parse_graph(text, "json")
    assert _labelled(back) == _labelled(g)
    assert to_json(back) == text


@settings(_settings, max_examples=150)  # about a third come without edges
@given(named_graphs(_TOKEN, isolated=False))
def test_edgelist_parses_back_to_the_same_graph_and_bytes(g):
    text = to_edgelist(g)
    back = parse_graph(text)
    assert sorted(_labelled(back)[0]) == sorted(_labelled(g)[0])
    assert _labelled(back)[1] == _labelled(g)[1]
    # The parser numbers vertices by first appearance and writes each edge
    # low id first, so a line may come back with its two names swapped;
    # from then on the text is a fixed point.
    again = to_edgelist(back)
    assert [set(line.split()) for line in again.splitlines()] == [
        set(line.split()) for line in text.splitlines()
    ]
    assert to_edgelist(parse_graph(again)) == again


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
_NAMES = st.sampled_from(["a", "b", "c", 1, "1", None])
_JSON_GRAPHS = st.fixed_dictionaries({
    "vertices": st.lists(_NAMES, max_size=4) | _JSON_VALUES,
    "edges": st.lists(st.lists(_NAMES, max_size=3) | _JSON_VALUES, max_size=4) | _JSON_VALUES,
}).map(json.dumps)
_EDGELIST_TEXT = st.lists(st.sampled_from(["a", "b", "c", " ", "\t", "#", "\n", "\r", "\x85"]), max_size=24).map("".join)
_INPUTS = st.one_of(
    st.text(), st.binary(), _EDGELIST_TEXT, _JSON_GRAPHS, _JSON_GRAPHS.map(str.encode),
    _JSON_VALUES.map(json.dumps),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_INPUTS, st.sampled_from(["edgelist", "json"]))
def test_parse_graph_raises_only_parse_error(data, fmt):
    try:
        g = parse_graph(data, fmt)
    except ParseError:
        return
    assert g.n >= 1 and len(g.edges) == g.m


def test_json_integer_past_the_digit_limit_is_a_parse_error():
    # json.loads raises a plain ValueError for integers longer than
    # sys.get_int_max_str_digits() (4,300 by default)
    with pytest.raises(ParseError):
        parse_graph("1" * 5000, "json")
