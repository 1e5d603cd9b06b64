import itertools
import random

import networkx as nx
import pytest

from stag import (
    EdgeInTree,
    NotTwoConnected,
    SpanningTree,
    TooManyTrees,
    build_stag,
    complete_graph,
    count_spanning_trees,
    dfs_spanning_tree,
    enumerate_spanning_trees,
    exchange_diameter,
    fundamental_cycle,
    reverse_delete_tree,
    serialize_trees,
    single_vertex_graph,
    type1_neighbors,
    type2_neighbors,
    witness_edge_for_pair,
)
from stag import spanning_trees
from stag.errors import NoWitness, ValidationFailed
from stag.generators import random_connected_graph, random_two_connected_graph
from stag.oracles import brute_force_trees
from stag.params import _all_pairs_diameter


def test_frozen_counts(c3, k4, diamond, theta, bowtie, k5):
    # values confirmed by the subset oracle below
    assert count_spanning_trees(c3) == 3
    assert count_spanning_trees(k4) == 16
    assert count_spanning_trees(diamond) == 8
    assert count_spanning_trees(theta) == 12
    assert count_spanning_trees(bowtie) == 9
    assert count_spanning_trees(k5) == 125


def test_counts_match_subset_oracle(c3, k4, diamond, theta, bowtie, k5):
    for g in (c3, k4, diamond, theta, bowtie, k5):
        assert count_spanning_trees(g) == len(brute_force_trees(g))


def test_count_trivia(p4):
    assert count_spanning_trees(p4) == 1
    assert count_spanning_trees(single_vertex_graph()) == 1


def test_cayley_formula():
    for n in range(2, 8):
        assert count_spanning_trees(complete_graph(n)) == n ** (n - 2)


def test_enumeration_matches_oracle():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        fast = [t.key for t in enumerate_spanning_trees(g)]
        slow = [t.key for t in brute_force_trees(g)]
        assert fast == slow


def test_enumeration_guard(k5):
    with pytest.raises(TooManyTrees):
        enumerate_spanning_trees(k5, max_trees=100)


def test_walk_completeness_check_is_not_an_assert(k4, monkeypatch):
    # a Kirchhoff count the walk cannot reach must fail loudly, also under -O
    monkeypatch.setattr(spanning_trees, "count_spanning_trees", lambda g: 17)
    with pytest.raises(ValidationFailed, match="16 of 17"):
        enumerate_spanning_trees(k4)


def test_dfs_tree_spans(theta):
    t = dfs_spanning_tree(theta)
    SpanningTree.of(theta, t)  # validates


def test_spanning_tree_validation(c4):
    with pytest.raises(ValueError):
        SpanningTree.of(c4, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        SpanningTree.of(c4, (0, 0, 1))
    with pytest.raises(ValueError):
        SpanningTree.of(c4, [0, 1, 9])


def test_diameters_of_aux_match_networkx():
    rng = random.Random(37)
    for _ in range(12):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, min(9, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        s = build_stag(g)
        aux = nx.Graph()
        aux.add_nodes_from(s.graph.vertices)
        aux.add_edges_from(e.endpoints() for e in s.graph.edges)
        assert _all_pairs_diameter(s.graph) == nx.diameter(aux)
        assert exchange_diameter(s) == nx.diameter(aux)


def test_fundamental_cycle(c4, k4):
    trees = enumerate_spanning_trees(c4)
    t = trees[0]
    non_tree = next(e for e in c4.edge_ids() if e not in t.edge_set)
    cyc = fundamental_cycle(c4, t, non_tree)
    assert sorted(cyc) == [0, 1, 2, 3]
    with pytest.raises(EdgeInTree):
        fundamental_cycle(c4, t, t.key[0])


def test_fundamental_cycle_needs_cycle(p3):
    t = enumerate_spanning_trees(p3)[0]
    assert all(e in t.edge_set for e in p3.edge_ids())


def test_unit_transformations_agree():
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(10, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        trees = enumerate_spanning_trees(g)
        by_key = {t.key: t for t in trees}
        for t in trees:
            sym = {u.key for u in trees if len(t.edge_set ^ u.edge_set) == 2}
            t1 = {u.key for u in type1_neighbors(g, t)}
            t2 = {u.key for u in type2_neighbors(g, t)}
            assert t1 == t2 == sym
        assert by_key


def test_exchange_distance_bound(k4):
    # any two trees are linked by at most n-1 exchanges
    trees = enumerate_spanning_trees(k4)
    index = {t.key: i for i, t in enumerate(trees)}
    adj = {i: set() for i in range(len(trees))}
    for i, t in enumerate(trees):
        for u in type2_neighbors(k4, t):
            adj[i].add(index[u.key])
    for src in range(len(trees)):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        assert len(dist) == len(trees)
        assert max(dist.values()) <= k4.n - 1


def test_witness_examples(k4, c4, theta):
    star = SpanningTree.of(k4, tuple(sorted(k4.incident_eids(0))))
    e1, e2 = star.key[0], star.key[1]
    w = witness_edge_for_pair(k4, star, e1, e2)
    cyc = set(fundamental_cycle(k4, star, w))
    assert {e1, e2} <= cyc

    t = enumerate_spanning_trees(c4)[0]
    for e1, e2 in itertools.combinations(t.key, 2):
        w = witness_edge_for_pair(c4, t, e1, e2)
        assert w not in t.edge_set


def test_witness_requires_two_connected(bowtie):
    t = enumerate_spanning_trees(bowtie)[0]
    with pytest.raises(NotTwoConnected):
        witness_edge_for_pair(bowtie, t, t.key[0], t.key[1])


def test_witness_can_fail_on_an_adversarial_tree(diamond):
    # the path 1-0-2-3 separates edges 01 and 23 in every fundamental cycle
    t = SpanningTree.of(diamond, (0, 2, 4))
    with pytest.raises(NoWitness):
        witness_edge_for_pair(diamond, t, 0, 2)


def test_protected_reverse_delete_always_yields_witness():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(3, 6)
        m = rng.randint(n, min(12, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        for e1, e2 in itertools.combinations(g.edge_ids(), 2):
            tree, trace = reverse_delete_tree(g, protected_pair=(e1, e2))
            assert trace, "2-connected graphs always have deletions"
            last_eid, last_cycle = trace[-1]
            assert e1 in last_cycle and e2 in last_cycle
            if e1 in tree.edge_set and e2 in tree.edge_set:
                w = witness_edge_for_pair(g, tree, e1, e2)
                assert {e1, e2} <= set(fundamental_cycle(g, tree, w))


def test_reverse_delete_on_tree_input(p4):
    tree, trace = reverse_delete_tree(p4)
    assert tree.key == tuple(sorted(p4.edge_ids()))
    assert trace == []


def test_reverse_delete_deletes_in_ascending_order(theta):
    tree, trace = reverse_delete_tree(theta)
    assert len(trace) == theta.m - (theta.n - 1)
    SpanningTree.of(theta, tree.key)


def test_serialize_trees(c3):
    text = serialize_trees(enumerate_spanning_trees(c3))
    assert text == "t: 0,1\nt: 0,2\nt: 1,2\n"
