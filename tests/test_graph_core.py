import itertools
import json
import random

import pytest

from stag import (
    Graph,
    HasBridge,
    ParseError,
    are_isomorphic,
    block_decomposition,
    bridges,
    cartesian_product,
    circumference,
    common_cycle_classes,
    complete_graph,
    cycle_graph,
    is_connected,
    is_two_connected,
    minimal_edge_cuts,
    parse_graph,
    path_graph,
    single_vertex_graph,
    to_dot,
    to_edgelist,
    to_json,
)
from stag.errors import Acyclic
from stag.generators import random_connected_graph


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_pairs([(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_pairs([(0, 1), (1, 0)])


def test_edge_ids_are_stable(k4):
    assert list(k4.edge_ids()) == list(range(6))
    e = k4.edge(3)
    assert e.other(e.u) == e.v


def test_parse_edgelist_roundtrip(theta):
    text = to_edgelist(theta)
    back = parse_graph(text)
    assert back.same_labeled(theta.relabeled()[0])


def test_parse_edgelist_errors():
    with pytest.raises(ParseError):
        parse_graph("a a\n")
    with pytest.raises(ParseError, match="^line 3: duplicate edge 'b' 'a'$"):
        parse_graph("a b\nb c\nb a\n")
    with pytest.raises(ParseError):
        parse_graph("# nothing\n")
    with pytest.raises(ParseError):
        parse_graph("a b c\n")


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


def test_dot_export_mentions_every_edge(c4):
    dot = to_dot(c4)
    assert dot.count("--") == 4


def test_is_connected(p3):
    assert is_connected(p3)
    assert not is_connected(Graph([0, 1, 2], [(0, 0, 1)]))
    assert is_connected(single_vertex_graph())


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
            sub = g.subgraph_edges(keep, vertices=g.vertices)
            if is_connected(sub):
                continue
            minimal = True
            for drop in combo:
                partial = [e for e in eids if e not in combo or e == drop]
                if not is_connected(g.subgraph_edges(partial, vertices=g.vertices)):
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
