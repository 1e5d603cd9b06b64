import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest

from stag import (
    Graph,
    SpanningTree,
    TooManyTrees,
    block_decomposition,
    build_stag,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    enumerate_spanning_trees,
    serialize_trees,
    single_vertex_graph,
)
from stag import spanning_trees
from stag.aux_graph import StagGraph, stag_to_json
from stag.errors import Disconnected, ValidationFailed
from stag.graph_core import bfs
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from stag.oracles import brute_force_stag, brute_force_trees
from stag.params import _all_pairs_diameter
from paper_lemmas import (
    EdgeInTree,
    NoWitness,
    NotTwoConnected,
    _positions,
    exchange_diameter,
    fundamental_cycle,
    reverse_delete_tree,
    type1_neighbors,
    type2_neighbors,
    witness_edge_for_pair,
)


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
    # the dense tail of K_n has n - 1 vertices, so this covers odd and even
    # tails of every length up to 59
    for n in range(2, 61):
        assert count_spanning_trees(complete_graph(n)) == n ** (n - 2)


def test_hypercube_closed_form():
    # tau(Q_d) = 2^(2^d - d - 1) prod_{k=1..d} k^C(d, k); Q7 has 128 vertices,
    # 448 edges and a count of 102 digits
    for d in range(2, 8):
        want = 2 ** (2 ** d - d - 1) * math.prod(k ** math.comb(d, k) for k in range(1, d + 1))
        assert count_spanning_trees(_hypercube(d)) == want


def test_closed_forms():
    for n in range(3, 30):
        assert count_spanning_trees(cycle_graph(n)) == n
    for a in range(1, 7):
        for b in range(1, 7):
            kab = Graph.from_pairs([(u, a + v) for u in range(a) for v in range(b)])
            assert count_spanning_trees(kab) == a ** (b - 1) * b ** (a - 1)
    for seed in range(20):
        assert count_spanning_trees(random_connected_graph(seed + 1, seed, seed)) == 1
    # n x n grids, OEIS A007341
    grids = [1, 4, 192, 100352, 557568000, 32565539635200, 19872369301840986112]
    for c, want in enumerate(grids, 1):
        assert count_spanning_trees(_grid(c, c)) == want
    # ladders P2 x Pn: t(n) = 4 t(n - 1) - t(n - 2)
    ladders = [1, 4]
    while len(ladders) < 40:
        ladders.append(4 * ladders[-1] - ladders[-2])
    for n, want in enumerate(ladders, 1):
        assert count_spanning_trees(_grid(2, n)) == want
    for k in range(3, 7):
        for b in (1, 2, 3, 10, 50):
            assert count_spanning_trees(_clique_chain(k, b)) == (k ** (k - 2)) ** b
    # wheels W_n, a hub joined to every vertex of C_n: tau = L_2n - 2, L the
    # Lucas numbers; with the hub grounded the rim is a cycle, eliminated down
    # to a triangle, and an entry waits many steps between writes
    lucas = [2, 1]
    while len(lucas) <= 80:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(3, 41):
        wheel = Graph.from_pairs([(i, (i + 1) % n) for i in range(n)] + [(n, i) for i in range(n)])
        assert count_spanning_trees(wheel) == lucas[2 * n] - 2


def _grid(rows, cols):
    """The rows x cols grid graph, vertex i * cols + j at row i, column j."""
    pairs = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    pairs += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return Graph(range(rows * cols), [(k, u, v) for k, (u, v) in enumerate(pairs)])


def _hypercube(d):
    """The d-cube Q_d: vertices 0 .. 2^d - 1, adjacent when they differ in one bit."""
    return Graph.from_pairs([(v, v | 1 << k) for v in range(1 << d) for k in range(d) if not v >> k & 1])


def _clique_chain(k, b):
    """b copies of K_k in a chain, copy x on vertices (k - 1) x .. (k - 1) x + k - 1,
    so consecutive copies share one cut vertex."""
    return Graph.from_pairs([((k - 1) * x + u, (k - 1) * x + v)
                             for x in range(b) for u, v in itertools.combinations(range(k), 2)])


def _fraction_count(g):
    """Kirchhoff's count by Gaussian elimination over Fractions with row
    swaps. It grounds the first vertex of lowest degree; the code under test
    grounds the last of highest degree, another vertex whenever n >= 2."""
    ground = min(g.vertices, key=g.degree)
    idx = {v: i for i, v in enumerate(v for v in g.vertices if v != ground)}
    size = len(idx)
    a = [[0] * size for _ in range(size)]
    for e in g.edges:
        for x, y in ((e.u, e.v), (e.v, e.u)):
            if x in idx:
                a[idx[x]][idx[x]] += 1
                if y in idx:
                    a[idx[x]][idx[y]] -= 1
    det = Fraction(1)
    for k in range(size):
        r = next((r for r in range(k, size) if a[r][k]), None)
        if r is None:
            return 0
        if r != k:
            a[k], a[r] = a[r], a[k]
            det = -det
        det *= a[k][k]
        pivot = [(c, a[k][c]) for c in range(k, size) if a[k][c]]
        for r in range(k + 1, size):
            if a[r][k]:
                f = Fraction(a[r][k]) / a[k][k]
                for c, x in pivot:
                    a[r][c] -= f * x
    assert det.denominator == 1
    return int(det)


def _shuffled(g, rng):
    """g with its vertex order, edge order and edge ids shuffled."""
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    ids = rng.sample(range(3 * g.m + 1), g.m)
    edges = [(ids[k], e.u, e.v) for k, e in enumerate(g.edges)]
    rng.shuffle(edges)
    return Graph(vertices, edges)


def test_count_matches_fraction_elimination():
    rng = random.Random(71)
    for k in range(200):
        n = rng.randint(1, 40)
        top = n * (n - 1) // 2
        # trees, sparse, mid and complete graphs in turn
        m = [n - 1, min(top, rng.randint(n - 1, 2 * n)), rng.randint(n - 1, top), top][k % 4]
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        expected = _fraction_count(g)
        assert count_spanning_trees(g) == expected
        assert count_spanning_trees(_shuffled(g, rng)) == expected
    # inputs where the elimination order matters: grids, and chains of blocks
    shaped = [_grid(r, c) for r in range(1, 7) for c in range(r, 7)]
    shaped += [_clique_chain(k, b) for k in (4, 5) for b in (1, 2, 3, 6)]
    for g in shaped:
        expected = _fraction_count(g)
        assert count_spanning_trees(g) == expected
        assert count_spanning_trees(_shuffled(g, rng)) == expected


def test_count_of_a_disconnected_graph_names_the_need():
    g = Graph.from_pairs([(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(Disconnected) as err:
        count_spanning_trees(g)
    assert str(err.value) == "spanning trees need a connected graph"


def test_count_is_the_product_over_blocks():
    g = random_multiblock_graph([7] * 60, 3)
    blocks = block_decomposition(g).blocks
    assert len(blocks) == 60
    assert count_spanning_trees(g) == math.prod(map(count_spanning_trees, blocks))


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


def _walk_inputs():
    rng = random.Random(44)
    for _ in range(6):
        n = rng.randint(3, 7)
        m = rng.randint(n, min(11, n * (n - 1) // 2))
        yield random_two_connected_graph(n, m, rng.randrange(1 << 30))
    for sizes in ((3, 4), (4, 3, 3), (5, 3)):
        yield random_multiblock_graph(sizes, rng.randrange(1 << 30))
    # edge ids in an order unrelated to the edges' positions in g.edges
    h = random_two_connected_graph(6, 10, 5)
    ids = rng.sample(range(100), h.m)
    yield Graph(h.vertices, [(ids[k], e.u, e.v) for k, e in enumerate(h.edges)])


def test_exchange_walk_emits_each_exchange_once():
    for g in _walk_inputs():
        masks, pairs = spanning_trees._walk(g, 10_000)
        keys, count = spanning_trees._keys(masks, g.edges), len(pairs)
        pairs = list(pairs)
        assert count == len(pairs) == len(set(pairs))
        assert len(keys) == count_spanning_trees(g)
        trees = brute_force_trees(g)
        assert keys == [t.key for t in trees]
        exchanges = {
            (i, j)
            for i, j in itertools.combinations(range(len(trees)), 2)
            if len(trees[i].edge_set ^ trees[j].edge_set) == 2
        }
        assert count == len(exchanges)
        assert pairs == sorted(exchanges)


def test_exchange_walk_matches_brute_force_stag():
    # K6 and a chain of three blocks: trees in key order, pairs already sorted
    for g in (complete_graph(6), random_multiblock_graph([4, 4, 4], 0)):
        masks, pairs = spanning_trees._walk(g, 10_000)
        keys, count = spanning_trees._keys(masks, g.edges), len(pairs)
        s = brute_force_stag(g)
        assert keys == [t.key for t in s.trees]
        assert list(pairs) == [(e.u, e.v) for e in s.graph.edges]
        assert count == s.graph.m


def test_exchange_walk_on_k1_and_on_trees():
    k1 = single_vertex_graph()
    masks, pairs = spanning_trees._walk(k1, 1)
    keys, count = spanning_trees._keys(masks, k1.edges), len(pairs)
    assert (keys, list(pairs), count) == ([()], [], 0)
    # m = n - 1: the start tree has no chords, so nothing is exchanged
    for seed in range(10):
        g = random_connected_graph(seed + 2, seed + 1, seed)
        masks, pairs = spanning_trees._walk(g, 1)
        keys, count = spanning_trees._keys(masks, g.edges), len(pairs)
        assert (keys, list(pairs), count) == ([tuple(sorted(g.edge_ids()))], [], 0)


def test_exchange_walk_on_cycles_gives_complete_graphs():
    # Aux(C_n) = K_n; from n = 65 on the tree masks exceed 64 bits
    for n in range(3, 71):
        ids = sorted(cycle_graph(n).edge_ids())
        g = cycle_graph(n)
        masks, pairs = spanning_trees._walk(g, n)
        keys, count = spanning_trees._keys(masks, g.edges), len(pairs)
        # dropping a greater edge id gives a smaller key
        assert keys == [tuple(x for x in ids if x != drop) for drop in reversed(ids)]
        assert list(pairs) == list(itertools.combinations(range(n), 2))
        assert count == n * (n - 1) // 2


def test_exchange_walk_on_block_chains_counts_product_edges():
    # Aux(G) is the Cartesian product of the Aux(B) over the blocks B
    for seed in range(3):
        g = random_multiblock_graph([4, 5, 3, 4], seed)
        aux = [brute_force_stag(b).graph for b in block_decomposition(g).blocks]
        orders = [a.n for a in aux]
        expected = sum(a.m * math.prod(orders) // a.n for a in aux)
        masks, pairs = spanning_trees._walk(g, 100_000)
        keys, count = spanning_trees._keys(masks, g.edges), len(pairs)
        assert len(keys) == math.prod(orders)
        assert count == len(list(pairs)) == expected


def _walk_sweep():
    """K3-K7, C3-C30, 153 seeded 2-connected graphs on n = 4 to 12
    vertices with n to n + 5 edges, and 48 seeded block chains."""
    for k in range(3, 8):
        yield complete_graph, (k,)
    for n in range(3, 31):
        yield cycle_graph, (n,)
    for n in range(4, 13):
        for m in range(n, min(n + 5, n * (n - 1) // 2) + 1):
            for seed in range(3):
                yield random_two_connected_graph, (n, m, seed)
    for extra in range(3):
        for sizes in ([3, 3], [4, 3], [3, 5], [4, 4, 3], [5, 3, 4], [3, 3, 3, 3], [6, 4],
                      [4, 6, 3]):
            for seed in range(2):
                yield random_multiblock_graph, (sizes, seed, extra)


def test_walk_output_is_pinned():
    # sha256 over the walk's masks and over its pairs, in the order _walk
    # gives them, each graph's after a line naming its arguments. Masks and
    # rows fix every Aux artifact's bytes: tree order, vertex numbering and
    # edge order.
    masks_h, pairs_h = hashlib.sha256(), hashlib.sha256()
    counts = Counter()
    for make, args in _walk_sweep():
        masks, pairs = spanning_trees._walk(make(*args), 20_000)
        masks_h.update(f"# {args}\n{','.join(map(str, masks))}\n".encode())
        pairs_h.update(f"# {args}\n{' '.join(f'{i}-{j}' for i, j in pairs)}\n".encode())
        counts[make.__name__] += 1
    assert counts == {"complete_graph": 5, "cycle_graph": 28,
                      "random_two_connected_graph": 153, "random_multiblock_graph": 48}
    assert masks_h.hexdigest() == "c4f833a563448df23083e627c96ab8975fb35ce0809b2ceda23827f4c25bce96"
    assert pairs_h.hexdigest() == "ed3425c240b7543d3f834e15ce8536495e499d3cecd11762fa16b8a3d44bcc75"


def _gapped_ids(g, rng):
    """g with edge ids drawn from a wider range, in an order unrelated to
    the edges' positions in g.edges."""
    ids = rng.sample(range(5 * g.m + 10), g.m)
    return Graph(g.vertices, [(ids[k], e.u, e.v) for k, e in enumerate(g.edges)])


def _decode_corpus():
    """K1, C30 and C45 (three or more chunks) and 60 seeded graphs with
    gapped ids."""
    rng = random.Random(1515)
    graphs = [single_vertex_graph(), cycle_graph(30), cycle_graph(45)]
    while len(graphs) < 63:
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, min(n + 6, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        if count_spanning_trees(g) <= 3000:
            graphs.append(_gapped_ids(g, rng))
    return graphs


def test_table_decode_matches_the_per_position_decode():
    for g in _decode_corpus():
        masks, _ = spanning_trees._walk(g, 10_000)
        edges = g.edges
        m = len(edges)
        eids = [e.eid for e in edges]
        bits = [1 << (m - 1 - p) for p in range(m)]
        reference = [tuple(eids[p] for p in range(m) if mask & bits[p]) for mask in masks]
        keys = spanning_trees._keys(masks, edges)
        assert keys == reference
        assert keys == sorted(keys) and all(len(k) == g.n - 1 for k in keys)
    k1 = single_vertex_graph()
    masks, _ = spanning_trees._walk(k1, 1)
    assert spanning_trees._keys(masks, k1.edges) == [()]


def test_text_decode_is_the_json_of_the_tuple_decode():
    for g in _decode_corpus():
        masks, _ = spanning_trees._walk(g, 10_000)
        keys = spanning_trees._keys(masks, g.edges)
        labels = spanning_trees._labels(spanning_trees._Trees(g, masks))
        assert labels == [",".join(map(str, k)) for k in keys]
        s = build_stag(g)
        member = '"trees":' + json.dumps(keys, separators=(",", ":"))
        assert member in stag_to_json(s)
        assert stag_to_json(StagGraph(s.graph, tuple(s.trees), g)) == stag_to_json(s)
        assert serialize_trees(enumerate_spanning_trees(g)) == serialize_trees(tuple(s.trees))
    # an oracle stag of a graph without spanning trees: json.dumps([])
    assert '"trees":[]' in stag_to_json(StagGraph(single_vertex_graph(), (), None))


def test_spanning_tree_validation(c4):
    with pytest.raises(ValueError):
        SpanningTree.of(c4, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        SpanningTree.of(c4, (0, 0, 1))
    with pytest.raises(ValueError):
        SpanningTree.of(c4, [0, 1, 9])


def test_diameters_of_aux_match_networkx():
    rng = random.Random(37)
    for _ in range(110):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n + 3, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        s = build_stag(g)
        aux = nx.Graph()
        aux.add_nodes_from(s.graph.vertices)
        aux.add_edges_from(e.endpoints() for e in s.graph.edges)
        assert _all_pairs_diameter(_positions(s.graph)) == nx.diameter(aux)
        assert exchange_diameter(s) == nx.diameter(aux)
    with pytest.raises(Disconnected):
        _all_pairs_diameter(_positions(Graph([0, 1, 2], [(0, 0, 1)])))


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
    star = SpanningTree.of(k4, tuple(sorted(k4.adj(0).values())))
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


def test_witness_and_reverse_delete_argument_errors(c4, p4):
    t = enumerate_spanning_trees(c4)[0]
    with pytest.raises(ValueError, match="^e1, e2 must be two distinct tree edges$"):
        witness_edge_for_pair(c4, t, t.key[0], t.key[0])
    with pytest.raises(Disconnected, match="^reverse delete needs a connected graph$"):
        reverse_delete_tree(Graph(range(4), [(0, 0, 1), (1, 2, 3)]))
    with pytest.raises(ValueError, match="^protected edges must be distinct$"):
        reverse_delete_tree(c4, protected_pair=(0, 0))
    with pytest.raises(NotTwoConnected, match="^protected pair requires a 2-connected host != K2$"):
        reverse_delete_tree(p4, protected_pair=(0, 1))


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


def test_reverse_delete_leaves_the_greatest_tree():
    # the greedy tree over descending ids, _walk's start
    rng = random.Random(2020)
    for k in range(100):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n + 5, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        if k % 2:
            g = _gapped_ids(g, rng)
        tree, _ = reverse_delete_tree(g)
        assert tree == max(brute_force_trees(g), key=lambda t: sorted(t.key, reverse=True))


def _assert_trace_cycles(g, tree, trace):
    """Each trace entry's cycle, its sorted edge ids, is a cycle of the
    graph that survives when its edge is deleted."""
    surviving = set(g.edge_ids())
    for d, cycle in trace:
        assert d in cycle and set(cycle) <= surviving and list(cycle) == sorted(cycle)
        degrees = Counter(x for eid in cycle for x in g.edge(eid).endpoints())
        assert set(degrees.values()) == {2}
        assert len(bfs(g, g.edge(d).u, set(cycle))) == len(degrees)
        surviving.remove(d)
    assert surviving == tree.edge_set


def test_reverse_delete_trace_cycles_survive_each_step():
    rng = random.Random(2121)
    for k in range(30):
        n = rng.randint(3, 7)
        m = rng.randint(n, min(n + 5, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        if k % 2:
            g = _gapped_ids(g, rng)
        for pair in (None, *itertools.combinations(g.edge_ids(), 2)):
            tree, trace = reverse_delete_tree(g, pair)
            _assert_trace_cycles(g, tree, trace)
            deleted = [d for d, _ in trace]
            if pair is None:
                assert deleted == sorted(deleted)
            else:
                # w, the cycle's greatest edge other than the pair, goes last
                assert deleted[:-1] == sorted(deleted[:-1])
                assert deleted[-1] == max(set(trace[-1][1]) - set(pair))


def test_protected_reverse_delete_at_m_2000_takes_under_a_second():
    g = random_two_connected_graph(1000, 2000, 1)
    e1, e2 = min(g.edge_ids()), max(g.edge_ids())
    start = time.perf_counter()
    tree, trace = reverse_delete_tree(g, protected_pair=(e1, e2))
    assert time.perf_counter() - start < 1.0
    assert {e1, e2} <= set(trace[-1][1]) <= tree.edge_set | {trace[-1][0]}


def test_serialize_trees(c3):
    text = serialize_trees(enumerate_spanning_trees(c3))
    assert text == "t: 0,1\nt: 0,2\nt: 1,2\n"
