import itertools
import json
import random
import sys

import networkx as nx
import pytest

from stag import (
    Graph,
    HasBridge,
    ParseError,
    are_isomorphic,
    block_decomposition,
    bridges,
    build_stag,
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
from stag.factorization import _components
from stag.generators import random_connected_graph
from stag.graph_core import bfs, tree_path_edges


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
                assert p in seen and eid in eids and g.edge(eid).pair == {p, v}
                seen.add(v)


def test_tree_path_edges_is_a_shortest_path():
    for g, eids, sub in _edge_restricted_inputs():
        for a, b in itertools.product(g.vertices, repeat=2):
            if not nx.has_path(sub, a, b):
                continue
            path = tree_path_edges(g, eids, a, b)
            assert len(path) == nx.shortest_path_length(sub, a, b)
            x = a
            for eid in path:
                assert eid in eids
                x = g.edge(eid).other(x)
            assert x == b


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


def test_are_isomorphic_aux_k6_relabelled():
    aux = build_stag(complete_graph(6)).graph
    other = _relabelled(aux, random.Random(6))
    ok, mapping = are_isomorphic(aux, other)
    assert ok
    _assert_mapping(aux, other, mapping)
    assert are_isomorphic(aux, other) == (True, mapping)
