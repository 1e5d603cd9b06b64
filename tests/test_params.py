import json
import random
from itertools import combinations

import networkx as nx
import pytest

from stag import (
    Graph,
    build_stag,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    param_report,
    path_graph,
)
from stag.graph_core import block_decomposition, bridges
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from stag.params import _clique_number, report_to_json, report_to_text
from oracles import Acyclic, circumference, minimal_edge_cuts
from paper_lemmas import clique_number, exchange_diameter
from test_layout import _deadline


def _nx_clique_number(h):
    return max(len(c) for c in nx.find_cliques(h))


def test_clique_number_matches_networkx():
    rng = random.Random(1990)
    graphs = []
    for k in range(120):
        n = rng.randint(1, 30)
        h = nx.gnp_random_graph(n, rng.choice((0.05, 0.2, 0.5, 0.8, 0.95)), seed=k)
        # vertex ids that are not 0..n-1 and edge ids in a shuffled order
        ids = rng.sample(range(1000), h.number_of_edges())
        edges = [(i, 3 * u + 1, 3 * v + 1) for i, (u, v) in zip(ids, h.edges)]
        g = Graph([3 * v + 1 for v in h], edges)
        graphs.append((g, h))
    while len(graphs) < 160:
        n = rng.randint(3, 8)
        m = rng.randint(n, min(n + 4, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        if count_spanning_trees(g) <= 800:
            aux = build_stag(g).graph
            h = nx.Graph()
            h.add_nodes_from(aux.vertices)
            h.add_edges_from(aux.edge_pairs())
            graphs.append((aux, h))
    for g, h in graphs:
        assert clique_number(g) == _nx_clique_number(h)


def test_clique_number_edge_cases(diamond):
    assert clique_number(Graph([0], [])) == 1
    assert clique_number(Graph(range(6), [])) == 1
    assert clique_number(diamond) == 3
    for k in range(1, 9):
        assert clique_number(complete_graph(k)) == k


def test_clique_number_of_a_clique_deeper_than_the_recursion_limit():
    # Aux(C1200) is K1200: the search holds one branch per clique vertex
    full = (1 << 1200) - 1
    assert _clique_number([full ^ (1 << v) for v in range(1200)]) == 1200


def test_exchange_diameter_equals_graph_diameter(c4, k4, theta):
    for g in (c4, k4, theta):
        s = build_stag(g)
        r = param_report(g)
        assert r.diam_aux == exchange_diameter(s)


def _pair_loop_diameter(s):
    """max over tree pairs of half the symmetric edge-set difference."""
    bit = {eid: 1 << p for p, eid in enumerate(s.origin.edge_ids())}
    masks = [sum(bit[eid] for eid in t.key) for t in s.trees]
    return max(((a ^ b).bit_count() for a, b in combinations(masks, 2)), default=0) // 2


def test_exchange_diameter_matches_the_pair_loop():
    rng = random.Random(29)
    graphs = []
    for _ in range(100):
        n = rng.randint(1, 8)
        m = rng.randint(n - 1, min(n + 6, n * (n - 1) // 2))
        graphs.append(random_connected_graph(n, m, rng.randrange(1 << 30)))
    for _ in range(30):
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        graphs.append(random_multiblock_graph(sizes, rng.randrange(1 << 30)))
    for _ in range(20):  # trees with one to three pendant triangles: bridges around few cycles
        n = rng.randint(1, 8)
        tree = random_connected_graph(n, n - 1, rng.randrange(1 << 30))
        edges = [(e.eid, e.u, e.v) for e in tree.edges]
        for k in range(rng.randint(1, 3)):
            v, a, b = rng.choice(tree.vertices), n + 2 * k, n + 2 * k + 1
            edges += [(len(edges), v, a), (len(edges) + 1, v, b), (len(edges) + 2, a, b)]
        graphs.append(Graph(range(n + 2 * k + 2), edges))
    # K5 glued to C4 and to C6 at one vertex: the largest rank of E - T is
    # 4 + 1 = 5, short of min(n - 1, m - n + 1) = 7, so every tree is ranked
    for k in (4, 6):
        ring = [0, *range(5, 4 + k)]
        graphs.append(Graph.from_pairs([*combinations(range(5), 2),
                                        *((ring[i - 1], ring[i]) for i in range(k))]))
    for g in graphs:
        s = build_stag(g)
        assert exchange_diameter(s) == _pair_loop_diameter(s)


def _star(leaves):
    return Graph(range(leaves + 1), [(i, 0, i + 1) for i in range(leaves)])


def test_param_report_is_linear_on_long_trees_and_bridged_paths():
    # the rank scan's bound min(n - 1, m - n + 1) is 0 on a tree and 1 on
    # the bridged path, and the first tree reaches it, so each scan ranks
    # one tree however long the graph is
    with _deadline(5):
        for g in (path_graph(20_001), _star(4000)):
            r = param_report(g)
            assert r.aux_vertices == 1 and r.verdicts["diameter_matches_exchange"] == (True, None)
        # an 8,000-edge path ending in a triangle: three trees, 8,000 bridges
        g = Graph.from_pairs([(i, i + 1) for i in range(8001)] + [(8001, 8002), (8000, 8002)])
        r = param_report(g)
        assert r.aux_vertices == 3 and r.verdicts["diameter_matches_exchange"] == (True, None)


def _theta(a, b, c):
    """Three paths of a, b and c edges between vertices 0 and 1."""
    pairs, nxt = [], 2
    for length in (a, b, c):
        ends = [0, *range(nxt, nxt + length - 1), 1]
        pairs += zip(ends, ends[1:])
        nxt += length - 1
    return Graph.from_pairs(pairs)


@pytest.mark.parametrize("g, circ, bond, diam", [
    (cycle_graph(62), 62, 2, 1),
    (cycle_graph(130), 130, 2, 1),
    (cycle_graph(1000), 1000, 2, 1),
    (_theta(20, 21, 22), 43, 3, 2),
    (_theta(2, 60, 3), 63, 3, 2),
], ids=["C62", "C130", "C1000", "theta(20,21,22)", "theta(2,60,3)"])
def test_report_values_past_61_edges(g, circ, bond, diam):
    # Aux(C_k) is K_k. A theta's longest cycle takes its two longest paths,
    # its largest bond one edge of each path, and any two trees differ in
    # at most the two edges that each leaves out.
    with _deadline(3):
        r = param_report(g)
    assert g.m > 61
    assert (r.circumference_g, r.max_minimal_cut_g) == (circ, bond)
    assert r.omega_aux == max(circ, bond) and r.diam_aux == diam
    assert all(ok for ok, _ in r.verdicts.values())


def test_report_values_c4(c4):
    r = param_report(c4)
    assert r.n == 4 and r.m == 4
    assert r.aux_vertices == 4
    assert r.delta_aux == 3 and r.Delta_aux == 3
    assert r.diam_aux == 1
    assert r.omega_aux == 4
    assert r.circumference_g == 4
    assert r.max_minimal_cut_g == 2
    assert all(ok for ok, _ in r.verdicts.values() if ok is not None)


def test_acyclic_host_skips_clique_lemma(p4):
    r = param_report(p4)
    assert r.aux_vertices == 1
    assert r.circumference_g is None
    ok, _ = r.verdicts["clique_number"]
    assert ok is None  # skipped, not asserted


def test_bounds_hold_on_random_graphs():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(9, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        r = param_report(g)
        violated = [k for k, (ok, _) in r.verdicts.items() if ok is False]
        assert violated == []
        assert r.delta_aux >= 2 * (m - n + 1)
        assert r.Delta_aux <= (n - 1) * (m - n + 1)
        assert r.diam_aux <= n - 1


def test_omega_equality_two_connected():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(3, 6)
        m = rng.randint(n, min(9, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        r = param_report(g)
        assert r.omega_aux == max(r.circumference_g, r.max_minimal_cut_g)


def test_report_serializations(k4):
    r = param_report(k4)
    doc = json.loads(report_to_json(r))
    assert doc["n"] == 4 and doc["aux_vertices"] == 16
    text = report_to_text(r)
    assert "clique_number" in text and "diameter" in text


def _brute_force_cycles_and_bonds(g):
    """(circumference or None, largest minimal edge cut) by exhaustive search."""
    try:
        circ = circumference(g)
    except Acyclic:
        circ = None
    return circ, max((len(c.edge_ids) for c in minimal_edge_cuts(g)), default=0)


def test_cycles_and_bonds_read_off_aux_equal_the_brute_force():
    rng = random.Random(37)
    graphs = [Graph([0], [])]
    while len(graphs) < 130:
        n = rng.randint(1, 10)
        m = rng.randint(n - 1, min(n + (4 if n < 8 else 3), n * (n - 1) // 2))
        graphs.append(random_connected_graph(n, m, rng.randrange(1 << 30)))
    while len(graphs) < 160:
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        graphs.append(random_multiblock_graph(sizes, rng.randrange(1 << 30), extra_edges=1))
    kinds = {"K1": 0, "tree": 0, "bridged": 0, "multiblock": 0}
    for g in graphs:
        r = param_report(g)
        assert g.n <= 10
        assert (r.circumference_g, r.max_minimal_cut_g) == _brute_force_cycles_and_bonds(g)
        kinds["K1"] += g.n == 1
        kinds["tree"] += g.n > 1 and g.m == g.n - 1
        kinds["bridged"] += g.m >= g.n and bool(bridges(g))
        kinds["multiblock"] += len(block_decomposition(g).blocks) > 1 and g.m >= g.n
    assert min(kinds.values()) >= 1 and kinds["multiblock"] >= 30, kinds
