"""Property tests of the exchange walk against the brute-force oracles, of
the tree count on dense and sparse graphs against elimination over
Fractions, and of invert against networkx and the atlas oracle."""

import pytest

pytest.importorskip("hypothesis")
import networkx as nx  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stag import Disconnected, Graph, NotAStag, build_stag, count_spanning_trees, enumerate_spanning_trees, invert  # noqa: E402
from stag import spanning_trees  # noqa: E402
from stag.oracles import brute_force_is_stag, brute_force_stag  # noqa: E402
from test_recognition import REJECTIONS  # noqa: E402
from test_spanning_trees import _fraction_count  # noqa: E402

# the same examples on every run; the counts keep tier-1 short
_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def connected_graphs(draw, max_n):
    """A random tree plus any set of chords, vertices and edge ids
    shuffled, so ids need not follow the order of the edges."""
    n = draw(st.integers(1, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    chords = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    pairs = draw(st.permutations(sorted(tree) + chords))
    ids = draw(st.lists(st.integers(0, 3 * len(pairs)), min_size=len(pairs), max_size=len(pairs), unique=True))
    vertices = draw(st.permutations(range(n)))
    return Graph(vertices, [(k, u, v) for k, (u, v) in zip(ids, pairs)])


@_settings
@given(connected_graphs(max_n=6))
def test_exchange_walk_equals_brute_force_stag(g):
    masks, pairs = spanning_trees._walk(g, 10_000)
    keys, count = spanning_trees._keys(masks, g.edges), len(pairs)
    s = brute_force_stag(g)
    assert keys == [t.key for t in s.trees]
    assert list(pairs) == [(e.u, e.v) for e in s.graph.edges]
    assert count == s.graph.m


@_settings
@given(connected_graphs(max_n=7))
def test_enumeration_size_is_the_kirchhoff_count(g):
    assert len(enumerate_spanning_trees(g)) == count_spanning_trees(g)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edge_pairs())
    return h


@st.composite
def dense_connected_graphs(draw, max_n):
    """A random tree plus every other pair but a few, vertices shuffled: the
    count's minimum-degree order stops early, so the dense tail is most of
    the block."""
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    missing = set(draw(st.lists(st.sampled_from(others), unique=True, max_size=n))) if others else set()
    pairs = sorted(tree) + [p for p in others if p not in missing]
    return Graph(draw(st.permutations(range(n))), [(k, u, v) for k, (u, v) in enumerate(pairs)])


@_settings
@given(dense_connected_graphs(max_n=25))
def test_count_of_a_dense_graph_matches_fraction_elimination(g):
    assert count_spanning_trees(g) == _fraction_count(g)


@st.composite
def sparse_connected_graphs(draw, max_n):
    """A random tree plus up to 2n + 1 chords, so m runs from n - 1 to 3n,
    vertex ids relabelled by a random permutation: the count's sparse phase
    is most of the block, and an entry can wait many steps between writes."""
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    chords = draw(st.lists(st.sampled_from(others), unique=True, max_size=2 * n + 1)) if others else []
    label = draw(st.permutations(range(n)))
    pairs = [(label[u], label[v]) for u, v in sorted(tree) + chords]
    return Graph(range(n), [(k, u, v) for k, (u, v) in enumerate(pairs)])


@_settings
@given(sparse_connected_graphs(max_n=40))
def test_count_of_a_sparse_graph_matches_fraction_elimination(g):
    assert count_spanning_trees(g) == _fraction_count(g)


@_settings
@given(connected_graphs(max_n=6))
def test_invert_gives_a_bridgeless_preimage_with_the_same_aux(g):
    aux = build_stag(g).graph
    back = invert(aux)
    assert not nx.has_bridges(_nx(back))
    assert nx.vf2pp_is_isomorphic(_nx(build_stag(back).graph), _nx(aux))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(connected_graphs(max_n=5).filter(lambda g: g.m >= g.n), st.data())
def test_one_edge_flips_of_aux_agree_with_the_oracle(g, data):
    aux = build_stag(g).graph
    flip = tuple(sorted(data.draw(st.lists(st.sampled_from(aux.vertices), min_size=2, max_size=2, unique=True))))
    pairs = [p for p in aux.edge_pairs() if p != flip]
    h = Graph.from_pairs(pairs if len(pairs) < aux.m else [*pairs, flip], vertices=aux.vertices)
    preimage = brute_force_is_stag(h)
    try:
        back = invert(h)
    except NotAStag as exc:
        assert str(exc).startswith(REJECTIONS), str(exc)
        assert preimage is None
    except Disconnected:
        assert preimage is None
    else:
        assert preimage is not None
        assert nx.vf2pp_is_isomorphic(_nx(build_stag(back).graph), _nx(h))
