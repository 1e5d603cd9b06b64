import copy
import itertools
import json
import math
import operator
import pickle
import random
import re
import signal
import sys

import networkx as nx
import pytest

import block_reference

from stag import (
    Edge,
    Graph,
    ParseError,
    are_isomorphic,
    block_decomposition,
    bridges,
    build_stag,
    cartesian_product,
    complete_graph,
    cycle_graph,
    invert,
    is_connected,
    is_two_connected,
    parse_graph,
    path_graph,
    single_vertex_graph,
    to_dot,
    to_edgelist,
    to_json,
)
from stag.aux_graph import StagGraph, stag_to_dot, stag_to_json
from stag.errors import Disconnected
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from stag.graph_core import _blocks, _components, bfs
from stag.spanning_trees import _block_count, _walk, count_spanning_trees
from oracles import Acyclic, circumference, minimal_edge_cuts, same_labeled
from paper_lemmas import HasBridge, common_cycle_classes, fundamental_cycle_edges


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_pairs([(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_pairs([(0, 1), (1, 0)])


def test_graph_error_precedence():
    # Edges are checked in input order; within one edge a repeated pair is
    # reported before a repeated id.
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,0\)$"):
        Graph([0, 1, 2], [(0, 0, 1), (0, 1, 0)])
    with pytest.raises(ValueError, match=r"^duplicate edge id 0$"):
        Graph([0, 1, 2], [(0, 0, 1), (0, 1, 2), (1, 1, 0)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph([0, 1, 2], [(0, 0, 1), (0, 2, 2), (0, 0, 1)])
    with pytest.raises(ValueError, match=r"^edge \(0,5\) touches unknown vertex$"):
        Graph([0, 1, 2], [(0, 0, 1), (0, 0, 5), (0, 1, 0)])
    # an id is compared after int(): 3 and "3" are one id
    with pytest.raises(ValueError, match=r"^duplicate edge id 3$"):
        Graph([0, 1, 2], [(3, 0, 1), ("3", 1, 2)])


def test_two_vertices_with_one_name_are_refused():
    # each would be written as text that reads back as another graph
    with pytest.raises(ValueError, match=r"^two vertices are named 'a'$"):
        Graph([0, 1, 2, 3], [(0, 0, 1), (1, 2, 3)], names={0: "a", 1: "b", 2: "a", 3: "c"})
    with pytest.raises(ValueError, match=r"^two vertices are named '1'$"):
        Graph([0, 1], [(0, 0, 1)], names={0: "1"})  # vertex 1 keeps its id as its name
    g1 = Graph.from_pairs([(0, 1)], names={0: "a,b", 1: "a"})
    g2 = Graph.from_pairs([(0, 1)], names={0: "c", 1: "b,c"})
    with pytest.raises(ValueError, match=r"^two vertices are named '\(a,b,c\)'$"):
        cartesian_product(g1, g2)


def test_empty_graph_short_cycle_and_unknown_format_are_refused():
    with pytest.raises(ValueError, match="^graph must have at least one vertex$"):
        Graph([], [])
    with pytest.raises(ValueError, match="^cycle needs at least 3 vertices$"):
        cycle_graph(2)
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        parse_graph("0 1\n", "xml")


def test_edge_ids_are_stable(k4):
    assert list(k4.edge_ids()) == list(range(6))
    e = k4.edge(3)
    assert e.eid == 3 and e.u < e.v


def _assert_edges_by_id(g):
    """g lists its edges by ascending id, and edge_ids(), edge_pairs(),
    to_edgelist, to_json and to_dot follow that order."""
    pairs = list(g.edge_pairs())
    text = to_edgelist(g)
    names = g.names
    ids = [e.eid for e in g.edges]
    assert ids == sorted(ids) and g.edge_ids() == tuple(ids)
    assert pairs == [(e.u, e.v) for e in g.edges]
    assert text.splitlines() == [f"{names[u]} {names[v]}" for u, v in pairs]
    assert json.loads(to_json(g))["edges"] == [[names[u], names[v]] for u, v in pairs]
    assert re.findall(r' -- n\d+ \[label="(\d+)"\]', to_dot(g)) == list(map(str, ids))


def test_every_constructor_lists_edges_by_ascending_id():
    # Graph() checks edges in input order and then sorts them by id; ids,
    # names and adjacency (so BFS order) keep the input
    shuffled = [(5, 10, 20), (2, 40, 30), (9, 20, 30), (0, 40, 10), (7, 10, 30)]
    for names in (None, {10: "a", 20: "b", 30: "c", 40: "d"}):
        g = Graph([40, 10, 30, 20], shuffled, names)
        _assert_edges_by_id(g)
        assert g.edges == (Edge(0, 10, 40), Edge(2, 30, 40), Edge(5, 10, 20), Edge(7, 10, 30),
                           Edge(9, 20, 30))
        assert g.edge(5) == Edge(5, 10, 20)
        assert list(g.adj(10).items()) == [(20, 5), (40, 0), (30, 7)]
        assert list(bfs(g, 10)) == [10, 20, 40, 30]
        for block in block_decomposition(g).blocks:
            _assert_edges_by_id(block)
    chain = random_multiblock_graph([4, 3, 5], 7, extra_edges=1)
    k4 = complete_graph(4)
    built = [
        Graph.from_pairs([(3, 1), (0, 2), (1, 0), (2, 3)]),
        parse_graph("b a\nc b\n# comment\na c\nc d\n"),
        parse_graph('{"vertices": ["x", "y", "z"], "edges": [["z", "x"], ["y", "z"]]}', "json"),
        random_connected_graph(9, 14, 3),
        random_two_connected_graph(8, 13, 4),
        chain,
        *block_decomposition(chain).blocks,
        cartesian_product(k4, cycle_graph(3)),
        invert(build_stag(k4).graph),
        build_stag(k4).graph,
    ]
    for g in built:
        _assert_edges_by_id(g)


def test_edge_keeps_its_api_and_works_as_a_dict_key(k4):
    e = Edge(7, 1, 4)
    assert (e.eid, e.u, e.v) == (7, 1, 4)
    assert e.endpoints() == (1, 4)
    assert {e: "x"}[Edge(7, 1, 4)] == "x"
    assert Edge(7, 1, 4) != Edge(8, 1, 4)
    by_edge = {k4.edge(eid): eid for eid in k4.edge_ids()}
    assert all(by_edge[e] == e.eid for e in k4.edges)
    assert len({k4.edge(0), k4.edge(0), k4.edge(1)}) == 2


def test_trusted_constructor_matches_graph(k4, k5):
    for g in (k4, k5, random_two_connected_graph(6, 9, 3), random_two_connected_graph(7, 10, 8)):
        masks, pairs = _walk(g, 10_000)
        pairs = list(pairs)
        fast = Graph._trusted(len(masks), pairs)
        slow = Graph(range(len(masks)), [(k, u, v) for k, (u, v) in enumerate(pairs)])
        assert fast.vertices == slow.vertices
        assert fast.edges == slow.edges
        assert all(type(e) is Edge for e in fast.edges)
        assert all(fast.adj(v) == slow.adj(v) for v in slow.vertices)
        assert all(fast.edge(k) == slow.edge(k) for k in slow.edge_ids())
        assert fast.names == slow.names


def _walk_graph(g):
    masks, pairs = _walk(g, 10_000)
    return Graph._trusted(len(masks), pairs)


_ALL = {"_edges", "_adj", "_by_id"}


def _state(g):
    """Which of the caches _edges, _adj and _by_id g has built."""
    return {name for name in _ALL if getattr(g, name) is not None}


def _full(g):
    """_state(g) once every public read has run: only edge() builds _by_id,
    so without an edge it stays unbuilt."""
    return _ALL if g.m else {"_edges", "_adj"}


# Each input makes a fresh Graph._trusted graph, with nothing built; the
# flag says whether it was given vertex names.
_LAZY_INPUTS = {
    "walk rows": (lambda: build_stag(random_two_connected_graph(6, 9, 3)).graph, False),
    "walk rows k4": (lambda: _walk_graph(complete_graph(4)), False),
    "edgelist": (lambda: parse_graph("a b\nc b\nc a\nc d\nd e\ne a\n"), True),
    "json": (lambda: parse_graph('{"vertices":["x","y","z","w"],"edges":[["y","x"],'
                                 '["z","y"],["w","x"],["x","z"]]}', "json"), True),
    "json k1": (lambda: parse_graph('{"vertices":["only"],"edges":[]}', "json"), True),
    "walk k1": (lambda: build_stag(single_vertex_graph()).graph, False),
    "connected": (lambda: random_connected_graph(9, 14, 4), False),
    "two-connected": (lambda: random_two_connected_graph(10, 14, 2), False),
    "multiblock": (lambda: random_multiblock_graph([4, 3, 5], 6, extra_edges=3), False),
}


def _lazy_and_reference(key):
    make, named = _LAZY_INPUTS[key]
    g = make()
    assert _state(g) == set()
    pairs = list(make().edge_pairs())
    ref = Graph(range(g.n), [(k, u, v) for k, (u, v) in enumerate(pairs)],
                make().names if named else None)
    return make, g, ref


_READS = [
    ("names", lambda g: g.names),
    ("edges", lambda g: (g.edges, [type(e) for e in g.edges])),
    ("edge", lambda g: [g.edge(k) for k in range(g.m)]),
    ("adj", lambda g: [g.adj(v) for v in g.vertices]),
    ("has_edge", lambda g: [g.has_edge(u, v) for u in g.vertices for v in g.vertices]),
    ("edge_ids", lambda g: g.edge_ids()),
    ("degree_sequence", lambda g: g.degree_sequence()),
]


def _serialised(g):
    """Every serialiser's bytes; the streaming ones run first, and to_dot,
    which reads edge ids, last."""
    aux = StagGraph(g, None, None)
    return [to_edgelist(g), to_json(g), stag_to_json(aux), stag_to_dot(aux), to_dot(g)]


@pytest.mark.parametrize("key", list(_LAZY_INPUTS))
def test_lazy_graph_reads_equal_graph_in_any_order(key):
    make, _, ref = _lazy_and_reference(key)
    for reads in (_READS, _READS[::-1]):
        g = make()
        assert (g.n, g.m, repr(g)) == (ref.n, ref.m, repr(ref))
        assert _state(g) == set()
        for name, read in reads:
            assert read(g) == read(ref), name
        assert _state(g) == _full(g) and g._pairs is None


@pytest.mark.parametrize("key", list(_LAZY_INPUTS))
def test_lazy_graph_serialises_like_graph_before_and_after_expansion(key):
    make, g, ref = _lazy_and_reference(key)
    want = _serialised(ref)
    streamed = [to_edgelist(g), to_json(g), stag_to_json(StagGraph(g, None, None)),
                stag_to_dot(StagGraph(g, None, None))]
    assert _state(g) == set()
    assert streamed == want[:4]
    assert to_dot(g) == want[4]
    assert _state(g) == {"_edges"}
    assert _serialised(g) == want


@pytest.mark.parametrize("key", list(_LAZY_INPUTS))
def test_expansion_releases_the_pairs_and_leaves_a_plain_graph(key):
    make, g, ref = _lazy_and_reference(key)
    counted = make()
    assert count_spanning_trees(counted) == count_spanning_trees(ref)
    # the block DFS reads the Edge tuples and builds no adjacency
    assert _state(counted) == {"_edges"} and counted._pairs is None
    pairs = g._pairs
    assert is_connected(g)
    assert _state(g) == {"_adj"} and g._pairs is pairs  # a BFS makes no Edge
    assert g.degree_sequence() == ref.degree_sequence()
    assert _state(g) == {"_adj"} and g._pairs is pairs  # no Edge is made
    # A class with __getattr__ loses CPython 3.11's specialised method
    # calls and slot reads, so the caches are slots, not built by a hook.
    assert not hasattr(Graph, "__getattr__")
    assert g.edges == ref.edges
    assert _state(g) == {"_edges", "_adj"} and g._pairs is None


@pytest.mark.parametrize("key", list(_LAZY_INPUTS))
def test_lazy_graph_copies_and_pickles_unexpanded(key):
    _, g, ref = _lazy_and_reference(key)
    for c in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert _state(c) == set() and c.m == ref.m
        assert _serialised(c) == _serialised(ref)
        assert all(read(c) == read(ref) for _, read in _READS)
    assert _state(g) == set() and g.edges == ref.edges


_GENERATED = {
    "k1": lambda: random_connected_graph(1, 0, 0),
    "connected": lambda: random_connected_graph(12, 30, 1),
    "triangle": lambda: random_two_connected_graph(3, 3, 0),
    "ears": lambda: random_two_connected_graph(10, 14, 2),
    "k7": lambda: random_two_connected_graph(7, 21, 0),
    **{f"blocks extra {k}": lambda k=k: random_multiblock_graph([3, 5, 4], 8, k) for k in range(4)},
}


@pytest.mark.parametrize("key", list(_GENERATED))
def test_generated_graphs_hold_only_their_pairs_until_read(key):
    make = _GENERATED[key]
    g = make()
    assert _state(g) == set() and g._names is None
    fresh = make()
    named = Graph(fresh.vertices, fresh.edges, {v: str(v) for v in fresh.vertices})
    assert (to_edgelist(g), to_json(g)) == (to_edgelist(named), to_json(named))
    assert _state(g) == set() and g._names is None
    assert to_dot(g) == to_dot(named)
    assert _state(g) == {"_edges"} and g._names is None
    ref = Graph(fresh.vertices, fresh.edges)
    assert ref._names is None
    assert [list(g.adj(v).items()) for v in g.vertices] == [
        list(ref.adj(v).items()) for v in ref.vertices]
    assert (g.vertices, g.edges, g.names) == (ref.vertices, ref.edges, ref.names)
    assert [g.edge(k) for k in range(g.m)] == [ref.edge(k) for k in range(ref.m)]


def test_lazy_graph_without_state_raises_attribute_error():
    # copy and pickle create the object before its state; a hook that read
    # a missing slot through itself would recurse here
    bare = object.__new__(type(parse_graph("a b\n")))
    for name in ("vertices", "edges", "names", "_adj", "_by_id", "_pairs", "m", "n"):
        with pytest.raises(AttributeError):
            getattr(bare, name)


def test_parse_edgelist_roundtrip(theta):
    text = to_edgelist(theta)
    back = parse_graph(text)
    assert same_labeled(back, theta)  # theta's ids are dense, in first-appearance order


def test_to_edgelist_refuses_names_it_cannot_write():
    found = parse_graph('{"vertices":["#x","c","d"],"edges":[["#x","c"],["c","d"]]}', "json")
    with pytest.raises(ValueError, match="vertex 0 is named '#x'"):
        to_edgelist(found)
    # parse_graph drops one leading U+FEFF, so a name cannot start with it
    for bad in ("a b", "", "a\u2028b", "\x1e", "\ufeff", "\ufeffa"):
        g = Graph([0, 1], [(0, 0, 1)], {0: "ok", 1: bad})
        with pytest.raises(ValueError, match=re.escape(f"vertex 1 is named {bad!r}")):
            to_edgelist(g)
    assert to_edgelist(Graph([0, 1], [(0, 0, 1)], {0: "a#", 1: "b"})) == "a# b\n"


def test_parse_edgelist_errors():
    with pytest.raises(ParseError):
        parse_graph("a a\n")
    with pytest.raises(ParseError, match="^line 3: duplicate edge 'b' 'a'$"):
        parse_graph("a b\nb c\nb a\n")
    with pytest.raises(ParseError):
        parse_graph("# nothing\n")
    with pytest.raises(ParseError):
        parse_graph("a b c\n")


@pytest.mark.parametrize("text, fmt", [
    ("a b\nb c\nc a\n", "edgelist"),
    ('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}', "json"),
])
def test_a_leading_byte_order_mark_is_dropped(text, fmt):
    plain = parse_graph(text, fmt)
    for marked in ("\ufeff" + text, b"\xef\xbb\xbf" + text.encode()):
        g = parse_graph(marked, fmt)
        assert same_labeled(g, plain) and g.names == plain.names == {0: "a", 1: "b", 2: "c"}
    with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff$"):
        parse_graph(b"\xef\xbb\xbfa b\nb \xff\n")
    assert parse_graph("\ufeff\ufeffa b\n").names == {0: "\ufeffa", 1: "b"}  # only one


def test_a_vertex_token_that_starts_a_comment_is_an_error():
    # the first token of a line starting with '#' makes the line a comment,
    # so no edge list can hold a name that starts with '#'
    with pytest.raises(ParseError, match="^line 1: vertex token '#1' starts with '#', which marks a comment$"):
        parse_graph("0 #1\n#1 2\n2 0\n")
    with pytest.raises(ParseError, match="^line 3: vertex token '#b' starts with '#'"):
        parse_graph("a b\n# a #b\nc #b\n")
    assert parse_graph("a# b\n").names == {0: "a#", 1: "b"}


def test_a_one_token_line_names_a_vertex():
    k1 = parse_graph("a\n")
    assert (k1.n, k1.m, k1.names) == (1, 0, {0: "a"})
    g = parse_graph("a\nb c\n")
    assert (g.n, list(g.edge_pairs()), g.names) == (3, [(1, 2)], {0: "a", 1: "b", 2: "c"})
    with pytest.raises(ParseError, match="^line 0: empty graph$"):
        parse_graph("#x\n \t#a b c\n")  # comments, whatever their token count
    with pytest.raises(ParseError, match="^line 3: expected one or two vertex tokens, got 3$"):
        parse_graph("a\nb c\nd e f\n")


def test_an_edgeless_graph_writes_its_vertex_names():
    g = Graph([0, 4, 7], [], {0: "x", 4: "y", 7: "z"})
    assert to_edgelist(g) == "x\ny\nz\n"
    assert parse_graph(to_edgelist(g)).names == {0: "x", 1: "y", 2: "z"}
    assert to_edgelist(single_vertex_graph()) == "0\n"
    assert to_edgelist(Graph([0, 1, 2], [(0, 1, 2)])) == "1 2\n"  # beside an edge, 0 is left out


def test_parse_json_roundtrip(diamond):
    doc = to_json(diamond)
    back = parse_graph(doc, fmt="json")
    assert back.n == 4 and back.m == 5
    assert are_isomorphic(back, diamond)[0]


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_graph("{", fmt="json")
    with pytest.raises(ParseError):
        parse_graph(json.dumps({"vertices": ["a"], "edges": [["a", "b"]]}), fmt="json")
    dup = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["b", "a"]]}
    with pytest.raises(ParseError, match=r"^line 2: duplicate edge \['b', 'a'\]$"):
        parse_graph(json.dumps(dup), fmt="json")
    with pytest.raises(ParseError, match="^line 0: self-loop at 'a'$"):
        parse_graph(json.dumps({"vertices": ["a", "b"], "edges": [["a", "a"]]}), fmt="json")


def test_dot_export_mentions_every_edge(c4):
    dot = to_dot(c4)
    assert dot.count("--") == 4


def test_dot_labels_escape_quotes_and_backslashes():
    g = parse_graph('a"b c\nd\\ e\\"f\n')
    dot = to_dot(g)
    assert dot.splitlines()[1:5] == [
        '  n0 [label="a\\"b"];', '  n1 [label="c"];',
        '  n2 [label="d\\\\"];', '  n3 [label="e\\\\\\"f"];']
    # read back as DOT reads a quoted string, each label is the name
    labels = re.findall(r'^  n\d+ \[label="((?:[^"\\]|\\.)*)"\];$', dot, re.M)
    assert [re.sub(r"\\(.)", r"\1", x) for x in labels] == ['a"b', "c", "d\\", 'e\\"f']


def test_is_connected(p3):
    assert is_connected(p3)
    assert not is_connected(Graph([0, 1, 2], [(0, 0, 1)]))
    assert is_connected(single_vertex_graph())


def _edge_restricted_inputs():
    """Seeded connected graphs, each with a random edge subset and that
    subset as a networkx graph on all vertices."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng.randrange(1 << 30))
        eids = set(rng.sample(g.edge_ids(), rng.randint(0, g.m)))
        sub = nx.Graph()
        sub.add_nodes_from(g.vertices)
        sub.add_edges_from(g.edge(eid).endpoints() for eid in eids)
        yield g, eids, sub


def test_bfs_with_an_edge_filter_reaches_the_component():
    for g, eids, sub in _edge_restricted_inputs():
        assert list(bfs(g, g.vertices[0])) == list(bfs(g, g.vertices[0], set(g.edge_ids())))
        assert len(bfs(g, g.vertices[-1])) == g.n
        for s in g.vertices:
            tree = bfs(g, s, eids)
            assert set(tree) == nx.node_connected_component(sub, s)
            assert next(iter(tree)) == s and tree[s] == (None, None)
            seen = {s}
            for v, (p, eid) in list(tree.items())[1:]:
                assert p in seen and eid in eids and set(g.edge(eid).endpoints()) == {p, v}
                seen.add(v)


def test_fundamental_cycle_edges_walk_the_tree_path_from_v_to_u():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng.randrange(1 << 30))
        tree = {eid for _, eid in bfs(g, rng.choice(g.vertices)).values() if eid is not None}
        for e in g.edges:
            if e.eid in tree:
                continue
            cycle = fundamental_cycle_edges(g, tree, e.eid)
            assert cycle[0] == e.eid and set(cycle[1:]) <= tree
            x = e.v
            for eid in cycle[1:]:
                a, b = g.edge(eid).endpoints()
                assert x in (a, b)
                x = b if x == a else a
            assert x == e.u


def test_components_match_networkx():
    for g, eids, sub in _edge_restricted_inputs():
        comp = _components(g, eids)
        groups = {}
        for v, c in comp.items():
            groups.setdefault(c, set()).add(v)
        assert sorted(map(sorted, groups.values())) == sorted(
            map(sorted, nx.connected_components(sub))
        )


def test_block_decomposition_bowtie(bowtie):
    dec = block_decomposition(bowtie)
    assert len(dec.blocks) == 2
    assert set(dec.cut_vertices) == {2}
    sizes = sorted(b.n for b in dec.blocks)
    assert sizes == [3, 3]


def test_block_decomposition_path(p4):
    dec = block_decomposition(p4)
    assert len(dec.blocks) == 3
    assert all(b.m == 1 for b in dec.blocks)
    assert len(dec.cut_vertices) == 2


def test_block_cut_tree_is_a_tree():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        dec = block_decomposition(g)
        nodes = len(dec.blocks) + len(dec.cut_vertices)
        assert len(dec.tree_edges) == nodes - 1


def _shuffled_ids(g, rng):
    """g rebuilt with shuffled vertex order, edge order, edge ids and names,
    so that adjacency order differs from id order."""
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    ids = rng.sample(range(3 * g.m + 1), g.m)
    edges = [(ids[k], e.u, e.v) for k, e in enumerate(g.edges)]
    rng.shuffle(edges)
    return Graph(vertices, edges, {v: f"v{v}" for v in vertices})


def _block_inputs():
    """120 seeded connected graphs, sparse ones with bridges and chains of
    2-connected blocks in turn, each followed by a shuffled-id copy."""
    rng = random.Random(41)
    for k in range(120):
        if k % 2:
            n = rng.randint(1, 14)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 8))
            g = random_connected_graph(n, m, rng.randrange(1 << 30))
        else:
            sizes = [rng.randint(3, 6) for _ in range(rng.randint(1, 5))]
            g = random_multiblock_graph(sizes, rng.randrange(1 << 30))
        yield g
        yield _shuffled_ids(g, rng)


def test_block_decomposition_matches_networkx():
    for g in _block_inputs():
        dec = block_decomposition(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edge_pairs())
        want = [sorted(tuple(sorted(uv)) for uv in c) for c in nx.biconnected_component_edges(nxg)]
        assert sorted(sorted(b.edge_pairs()) for b in dec.blocks) == sorted(want)
        assert dec.cut_vertices == set(nx.articulation_points(nxg))
        for b in dec.blocks:
            assert list(b.edge_ids()) == sorted(b.edge_ids())
            assert all(e == g.edge(e.eid) for e in b.edges)
            assert b.vertices == tuple(sorted({x for e in b.edges for x in e.endpoints()}))
        if g.n > 1:
            assert len(dec.tree_edges) == len(dec.blocks) + len(dec.cut_vertices) - 1
        # the same ids with adjacency in id order: the order depends on ids only
        by_id = block_decomposition(Graph(g.vertices, sorted(g.edges), g.names))
        assert [b.edges for b in by_id.blocks] == [b.edges for b in dec.blocks]
        assert by_id.tree_edges == dec.tree_edges
        assert bridges(g) == sorted(g.eid_between(*uv) for uv in nx.bridges(nxg))
        assert is_two_connected(g) == (g.n > 1 and nx.is_biconnected(nxg))


def _reference_inputs():
    """_block_inputs(), each shuffled-id copy also with gapped vertex ids
    (the DFS keeps dicts, not lists, when the ids are not 0..n-1), chains
    of scale's size (100-150 blocks of 5-9 vertices), K1, K2, and a path
    and a cycle on 50,000 vertices."""
    for k, g in enumerate(_block_inputs()):
        yield g
        if k % 2:
            yield Graph([3 * v + 1 for v in g.vertices],
                        [(e.eid, 3 * e.u + 1, 3 * e.v + 1) for e in g.edges])
    rng = random.Random(43)
    for _ in range(4):
        sizes = [rng.randint(5, 9) for _ in range(rng.randint(100, 150))]
        yield random_multiblock_graph(sizes, rng.randrange(1 << 30))
    yield single_vertex_graph()
    yield path_graph(2)
    yield path_graph(50_000)
    yield cycle_graph(50_000)


def test_blocks_match_the_reference_dfs():
    # The reference is the DFS as it stood before its frame moved into
    # local variables: the same Edge objects, in the same order, in the
    # same blocks, and everything derived from them.
    for g in _reference_inputs():
        want, want_cut = block_reference._blocks(g)
        got, got_cut = _blocks(g)
        assert [list(map(id, b)) for b in got] == [list(map(id, b)) for b in want]
        assert got_cut == want_cut
        dec, ref = block_decomposition(g), block_reference.block_decomposition(g)
        assert len(dec.blocks) == len(ref.blocks)
        for b, r in zip(dec.blocks, ref.blocks):
            assert len(b.edges) == len(r.edges) and all(map(operator.is_, b.edges, r.edges))
            assert (b.vertices, b._names) == (r.vertices, r._names)
        assert (dec.cut_vertices, dec.tree_edges) == (ref.cut_vertices, ref.tree_edges)
        assert bridges(g) == sorted(b[0].eid for b in want if len(b) == 1)
        assert is_two_connected(g) == (g.m == 1 if g.n <= 2 else not want_cut)
        assert count_spanning_trees(g) == math.prod(_block_count(b) for b in want if len(b) > 1)


def test_block_decomposition_edge_cases():
    split = Graph([0, 1, 2, 3], [(0, 0, 1), (1, 2, 3)])
    for f in (block_decomposition, bridges, common_cycle_classes):
        with pytest.raises(Disconnected):
            f(split)
    assert not is_two_connected(split)
    dec = block_decomposition(single_vertex_graph())
    assert dec.blocks == () and dec.cut_vertices == frozenset() and dec.tree_edges == ()
    k = 50_000
    dec = block_decomposition(path_graph(k))
    assert len(dec.blocks) == k - 1 and len(dec.cut_vertices) == k - 2
    dec = block_decomposition(cycle_graph(k))
    assert len(dec.blocks) == 1 and dec.blocks[0].m == k and not dec.cut_vertices


def _built(g, eids):
    """The Graph that Graph(vertices, edges, names) builds from g's edges
    eids and their endpoints."""
    es = [g.edge(i) for i in sorted(eids)]
    return Graph({x for e in es for x in e.endpoints()}, es, g.names)


def _same_graph(sub, ref, host):
    """Field by field: vertices, edges (each the host's own tuple), names,
    and, once edge() and degree() have built them, the ordered items of
    _by_id (none without an edge) and of each vertex's _adj."""
    assert (sub.vertices, sub.names) == (ref.vertices, ref.names)
    assert sub.edges == ref.edges
    assert all(e is host.edge(e.eid) is sub.edge(e.eid) for e in sub.edges)
    assert [sub.degree(v) for v in ref.vertices] == [ref.degree(v) for v in ref.vertices]
    assert _state(sub) == _full(sub)
    assert list((sub._by_id or {}).items()) == list(ref._by_id.items())
    assert all(list(sub._adj[v].items()) == list(ref._adj[v].items()) for v in ref.vertices)


# A block's first read of its structure, each through another accessor.
_FIRST_READS = {
    "adj": lambda b: [b.adj(v) for v in b.vertices],
    "degree": lambda b: [b.degree(v) for v in b.vertices],
    "edge_pairs": lambda b: list(b.edge_pairs()),
    "edge": lambda b: [b.edge(e.eid) for e in b.edges],
}


def test_blocks_equal_the_graph_built_from_their_edges():
    for g in _block_inputs():
        refs = [_built(g, b.edge_ids()) for b in block_decomposition(g).blocks]
        for name, read in _FIRST_READS.items():
            blocks = block_decomposition(g).blocks
            assert len(blocks) == len(refs)
            for b, ref in zip(blocks, refs):
                assert _state(b) == {"_edges"}
                assert read(b) == read(ref), name
                _same_graph(b, ref, g)


def test_blocks_stay_unexpanded_until_their_adjacency_is_read():
    generated = random_multiblock_graph([4, 5, 6], 3)
    # a generated host holds no names; a parsed one names each vertex
    for g in (parse_graph(to_edgelist(generated)), generated):
        names = g._names
        blocks = block_decomposition(g).blocks
        for b in blocks:
            b.edge_ids(), b.vertices, b.n, b.m, repr(b)
            assert (b._names is None) == (names is None)
            assert b.names == {v: str(v) if names is None else names[v] for v in b.vertices}
            assert bridges(b) == ([b.edges[0].eid] if b.m == 1 else [])  # _blocks reads edges only
        assert all(_state(b) == {"_edges"} and b._pairs is None for b in blocks)
        # the host keeps only the Edge tuples the DFS reads: no edge index or names
        assert _state(g) == {"_edges"} and g._names is names
    blocks[0].has_edge(*next(blocks[0].edge_pairs()))
    assert _state(blocks[0]) == {"_edges", "_adj"}
    assert all(_state(b) == {"_edges"} for b in blocks[1:])


def test_unexpanded_blocks_copy_and_pickle_unexpanded():
    g = _shuffled_ids(random_multiblock_graph([3, 5, 4], 9), random.Random(2))
    for b in block_decomposition(g).blocks:
        ref = _built(g, b.edge_ids())
        for c in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert _state(c) == {"_edges"}
            assert (c.vertices, c.edges, c.names) == (ref.vertices, ref.edges, ref.names)
            assert all(read(c) == read(ref) for read in _FIRST_READS.values())
            assert _state(c) == _ALL
        assert _state(b) == {"_edges"}
        _same_graph(b, ref, g)


# _READS with edge() by the ids the graph has, dense or not.
_ANY_READS = [read for name, read in _READS if name != "edge"] + [
    lambda g: [g.edge(e.eid) for e in g.edges]
]

# Reads that leave a graph in each cache state it can reach.
_PREPARE = {
    "nothing": lambda g: None,
    "adjacency": lambda g: g.degree_sequence(),
    "edges": lambda g: g.edges,
    "everything": lambda g: [read(g) for read in _ANY_READS],
}


@pytest.mark.parametrize("prepare", list(_PREPARE))
def test_copies_keep_the_cache_state(prepare):
    makes = [make for make, _ in _LAZY_INPUTS.values()] + [
        lambda: block_decomposition(random_multiblock_graph([3, 5, 4], 9)).blocks[1],
        lambda: _shuffled_ids(complete_graph(4), random.Random(3)),
    ]
    for make in makes:
        fresh = make()
        want = [read(fresh) for read in _ANY_READS] + _serialised(fresh)
        g = make()
        _PREPARE[prepare](g)
        state = (_state(g), g._pairs is None)
        for c in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert (_state(c), c._pairs is None) == state
            assert [read(c) for read in _ANY_READS] + _serialised(c) == want
        assert (_state(g), g._pairs is None) == state


def test_block_without_state_raises_attribute_error():
    bare = object.__new__(type(block_decomposition(path_graph(3)).blocks[0]))
    for name in ("vertices", "edges", "names", "_adj", "_by_id", "_pairs", "m", "n"):
        with pytest.raises(AttributeError):
            getattr(bare, name)


def test_bridges(triangle_pendant, theta):
    assert bridges(triangle_pendant) == [3]
    assert bridges(theta) == []


def test_is_two_connected(k4, bowtie, p3):
    assert is_two_connected(k4)
    assert not is_two_connected(bowtie)
    assert not is_two_connected(p3)
    assert is_two_connected(Graph.from_pairs([(0, 1)]))  # K2 by convention
    assert not is_two_connected(single_vertex_graph())


def test_common_cycle_classes_are_blocks(bowtie, theta):
    classes = common_cycle_classes(bowtie)
    assert sorted(sorted(c) for c in classes) == [[0, 1, 2], [3, 4, 5]]
    assert len(common_cycle_classes(theta)) == 1


def test_common_cycle_classes_needs_bridgeless(triangle_pendant):
    with pytest.raises(HasBridge):
        common_cycle_classes(triangle_pendant)


def _brute_minimal_cuts(g):
    """Independent oracle: all edge subsets whose removal disconnects g
    while every proper subset leaves it connected."""
    eids = list(g.edge_ids())
    found = []
    for r in range(1, len(eids) + 1):
        for combo in itertools.combinations(eids, r):
            keep = [e for e in eids if e not in combo]
            sub = Graph(g.vertices, [g.edge(i) for i in keep])
            if is_connected(sub):
                continue
            minimal = True
            for drop in combo:
                partial = [e for e in eids if e not in combo or e == drop]
                if not is_connected(Graph(g.vertices, [g.edge(i) for i in partial])):
                    minimal = False
                    break
            if minimal:
                found.append(frozenset(combo))
    return set(found)


def test_minimal_edge_cuts_match_subset_oracle(c4, diamond, theta):
    for g in (c4, diamond, theta):
        got = {frozenset(c.edge_ids) for c in minimal_edge_cuts(g)}
        assert got == _brute_minimal_cuts(g)


def test_minimal_edge_cuts_random():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(9, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        got = {frozenset(c.edge_ids) for c in minimal_edge_cuts(g)}
        assert got == _brute_minimal_cuts(g)


def test_circumference(c5, diamond, k4, p4):
    assert circumference(c5) == 5
    assert circumference(diamond) == 4
    assert circumference(k4) == 4
    with pytest.raises(Acyclic):
        circumference(p4)


def test_cartesian_product_squares():
    k2 = path_graph(2)
    c4 = cartesian_product(k2, k2)
    assert are_isomorphic(c4, cycle_graph(4))[0]


def test_cartesian_product_k3_k3():
    g = cartesian_product(complete_graph(3), complete_graph(3))
    assert g.n == 9
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_k1_is_product_identity(theta):
    one = single_vertex_graph()
    prod = cartesian_product(one, theta)
    assert are_isomorphic(prod, theta)[0]


def test_are_isomorphic_positive_and_negative(c4, p4):
    ok, mapping = are_isomorphic(c4, cartesian_product(path_graph(2), path_graph(2)))
    assert ok
    assert len(mapping) == 4
    assert not are_isomorphic(c4, p4)[0]
    # same n and m as P4: only the degree sequences tell the claw apart
    assert are_isomorphic(p4, Graph.from_pairs([(0, 1), (0, 2), (0, 3)])) == (False, None)


def test_are_isomorphic_regular_pair():
    # same degree sequence, different graphs
    c6 = cycle_graph(6)
    two_triangles = Graph([0, 1, 2, 3, 4, 5],
                          [(0, 0, 1), (1, 1, 2), (2, 0, 2), (3, 3, 4), (4, 4, 5), (5, 3, 5)])
    assert not are_isomorphic(c6, two_triangles)[0]


def test_are_isomorphic_random_permutations():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_pairs([(perm[e.u], perm[e.v]) for e in g.edges])
        ok, mapping = are_isomorphic(g, h)
        assert ok
        for e in g.edges:
            assert h.has_edge(mapping[e.u], mapping[e.v])


def _relabelled(g, rng):
    perm = list(g.vertices)
    rng.shuffle(perm)
    to = dict(zip(g.vertices, perm))
    return Graph(g.vertices, [(e.eid, to[e.u], to[e.v]) for e in g.edges])


def _assert_mapping(g, h, mapping):
    assert sorted(mapping) == list(g.vertices)
    assert sorted(mapping.values()) == list(h.vertices)
    for e in g.edges:
        assert h.has_edge(mapping[e.u], mapping[e.v])


def _to_nx(g):
    x = nx.Graph()
    x.add_nodes_from(g.vertices)
    x.add_edges_from(e.endpoints() for e in g.edges)
    return x


def _degree_preserving_swap(g, rng):
    """g after one double edge swap ab, cd -> ad, cb, where one applies."""
    pairs = sorted(e.endpoints() for e in g.edges)
    for _ in range(20 if len(pairs) > 1 else 0):
        (a, b), (c, d) = rng.sample(pairs, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            kept = [p for p in pairs if p not in ((a, b), (c, d))]
            return Graph.from_pairs(kept + [(a, d), (c, b)], vertices=g.vertices)
    return g


def _shrikhande():
    gens = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    pairs = {
        frozenset((4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4))
        for a in range(4) for b in range(4) for x, y in gens
    }
    return Graph.from_pairs(sorted(tuple(sorted(p)) for p in pairs), vertices=range(16))


def test_are_isomorphic_agrees_with_networkx():
    rng = random.Random(11)
    pairs = [(single_vertex_graph(), single_vertex_graph())]
    for _ in range(400):
        n = rng.randint(1, 9)
        slots = list(itertools.combinations(range(n), 2))
        g = Graph.from_pairs(rng.sample(slots, rng.randint(0, len(slots))), vertices=range(n))
        pairs.append((g, _relabelled(g, rng)))
        pairs.append((g, _relabelled(_degree_preserving_swap(g, rng), rng)))
    k44, shrikhande = cartesian_product(complete_graph(4), complete_graph(4)), _shrikhande()
    pairs += [(k44, shrikhande), (shrikhande, k44), (shrikhande, _relabelled(shrikhande, rng))]
    same_degrees_negative = disconnected = 0
    for g, h in pairs:
        ok, mapping = are_isomorphic(g, h)
        assert ok == nx.is_isomorphic(_to_nx(g), _to_nx(h))
        if ok:
            _assert_mapping(g, h, mapping)
        else:
            assert mapping is None
            same_degrees_negative += g.degree_sequence() == h.degree_sequence()
        disconnected += not is_connected(g)
    assert k44.degree_sequence() == shrikhande.degree_sequence()
    assert not are_isomorphic(k44, shrikhande)[0]
    assert same_degrees_negative >= 50 and disconnected >= 100


def test_are_isomorphic_long_inputs_keep_the_recursion_limit():
    limit = sys.getrecursionlimit()
    p = path_graph(4000)
    q = _relabelled(p, random.Random(5))
    c = cycle_graph(4000)
    for g, h in [(p, q), (c, c)]:
        ok, mapping = are_isomorphic(g, h)
        assert ok
        _assert_mapping(g, h, mapping)
    assert sys.getrecursionlimit() == limit


def test_are_isomorphic_compares_component_sizes_first():
    # one colour class and no component check: past 60 s, quadratic in n
    c = cycle_graph(4000)
    halves = Graph.from_pairs([(i, (i + 1) % 2000) for i in range(2000)]
                              + [(2000 + i, 2000 + (i + 1) % 2000) for i in range(2000)])

    def expire(signum, frame):
        raise TimeoutError("are_isomorphic ran past 1 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert are_isomorphic(c, halves) == (False, None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_are_isomorphic_aux_k6_relabelled():
    aux = build_stag(complete_graph(6)).graph
    other = _relabelled(aux, random.Random(6))
    ok, mapping = are_isomorphic(aux, other)
    assert ok
    _assert_mapping(aux, other, mapping)
    assert are_isomorphic(aux, other) == (True, mapping)
