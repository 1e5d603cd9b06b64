import hashlib
import itertools
import random
import re

import networkx as nx
import pytest

from stag import (
    Disconnected,
    Graph,
    NotAStag,
    NotMinimal,
    are_isomorphic,
    build_stag,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    enumerate_preimages,
    invert,
    parse_graph,
    single_vertex_graph,
    to_edgelist,
)
from stag.generators import random_multiblock_graph, random_two_connected_graph
from stag.oracles import brute_force_is_stag
from stag.graph_core import bfs
from stag.recognition import _certify, layout, neighborhood_root
from stag.matroid import _fundamental_cycles, _pack, exchange
from stag.spanning_trees import _walk
from paper_lemmas import neighborhood_partitions

REJECTIONS = (
    "no triangle",
    "not a line graph",
    "root not bipartite",
    "neither side is graphic",
    "no simple graph realizes",
    "certificate does not extend",
    "count mismatch",
)


def _root_matches_ground_truth(s, x):
    """The root's sides are the cut and cycle classes of N(x), up to
    swapping, and its graph is the networkx inverse line graph of N(x)."""
    classes, root, blocks = neighborhood_root(s.graph, x)
    assert len(blocks) == 1
    sides = {frozenset(classes[a] for a in side) for side in blocks[0]}
    truth = neighborhood_partitions(s, x)
    assert sides == {
        frozenset(ws for _, ws in truth.cut_classes),
        frozenset(ws for _, ws in truth.cycle_classes),
    }
    nbrs = s.graph.adj(x)
    line = nx.Graph()
    line.add_nodes_from(nbrs)
    line.add_edges_from((e.u, e.v) for e in s.graph.edges if e.u in nbrs and e.v in nbrs)
    assert nx.is_isomorphic(nx.Graph(list(root.edge_pairs())), nx.inverse_line_graph(line))


def test_recovered_partitions_on_aux_c4(c4):
    s = build_stag(c4)  # K4
    for x in s.graph.vertices:
        _root_matches_ground_truth(s, x)


def test_root_sides_are_the_cut_and_cycle_classes():
    graphs = [
        complete_graph(5),
        complete_graph(6),
        random_two_connected_graph(6, 12, 0),
        random_two_connected_graph(7, 14, 3),
    ]
    for g in graphs:
        s = build_stag(g)
        n = s.graph.n
        for x in sorted({0, 1, n // 3, n // 2, n - 1}):
            _root_matches_ground_truth(s, x)


def test_root_is_the_fundamental_graph():
    """Each root node, named by the cut or cycle class of N(x) with its
    star, makes root edge y the pair (f, e) with y = T - f + e: B_T."""
    cases = [
        (complete_graph(5), 1),
        (complete_graph(6), 1),
        (random_two_connected_graph(6, 12, 0), 1),
        (random_two_connected_graph(7, 14, 3), 1),
        (random_multiblock_graph([4, 4], 5), 2),
    ]
    for g, k in cases:
        s = build_stag(g)
        n = s.graph.n
        for x in sorted({0, 1, n // 3, n // 2, n - 1}):
            classes, root, blocks = neighborhood_root(s.graph, x)
            assert len(blocks) == k
            truth = neighborhood_partitions(s, x)
            name = {ws: ("cut", f) for f, ws in truth.cut_classes}
            name.update({ws: ("cycle", e) for e, ws in truth.cycle_classes})
            t = s.trees[x].edge_set
            assert {y: {name[classes[a]], name[classes[b]]} for y, a, b in root.edges} == {
                y: {("cut", f), ("cycle", e)}
                for y in s.graph.adj(x)
                for (f,), (e,) in [(t - s.trees[y].edge_set, s.trees[y].edge_set - t)]
            }


def test_recovered_partitions_reject_non_stag(p4):
    with pytest.raises(NotAStag, match="no triangle"):
        neighborhood_root(p4, 1)
    # the hub of the wheel W5 sees C5, the line graph of an odd cycle
    wheel = Graph.from_pairs([(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    with pytest.raises(NotAStag, match="root not bipartite"):
        neighborhood_root(wheel, 0)
    assert brute_force_is_stag(wheel) is None


def test_invert_recovers_preimage_counts(c4, k4, theta, diamond):
    for g in (c4, k4, theta, diamond):
        g2 = invert(build_stag(g).graph)
        assert (g2.n, g2.m) == (g.n, g.m)


def test_layout_and_chords_rebuild_a_cycle(c5):
    h = build_stag(c5).graph  # K5
    classes, root, [block] = neighborhood_root(h, 0)
    # one cycle class of four neighbors; four singleton cut classes
    cycles, tree = sorted(block, key=len)
    paths = {c: set(root.adj(c)) for c in cycles}
    place, path_ends = layout(tree, paths)
    g = Graph.from_pairs(list(place.values()) + [path_ends[c] for c in cycles])
    assert are_isomorphic(g, c5)[0]


def test_layout_infeasible_labels():
    # three edges of one cycle id must come out as a path
    place, ends = layout([0, 1, 2], {3: {0, 1, 2}})
    degs = {}
    for u, v in place.values():
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    assert sorted(degs.values()) == [1, 1, 2, 2]
    assert sorted(ends[3]) == sorted(v for v, d in degs.items() if d == 1)

    # the Fano plane's fundamental circuits: every pair and the triple
    # cannot all be paths in one tree
    assert layout([0, 1, 2], {3: {0, 1}, 4: {1, 2}, 5: {0, 2}, 6: {0, 1, 2}}) is None


def test_invert_fixtures(c3, c4, c5, k4, diamond, theta):
    for g in (c3, c4, c5, k4, diamond, theta):
        h = build_stag(g).graph
        g2 = invert(h)
        assert are_isomorphic(build_stag(g2).graph, h)[0]


def test_invert_complete_input():
    # K_n is Aux(C_n)
    for k in (3, 5, 6):
        assert are_isomorphic(invert(complete_graph(k)), cycle_graph(k))[0]


def test_fano_basis_graph_is_not_graphic_on_either_side():
    lines = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]
    bases = [set(b) for b in itertools.combinations(range(7), 3) if set(b) not in lines]
    assert len(bases) == 28
    h = Graph.from_pairs(
        [(i, j) for i, j in itertools.combinations(range(28), 2) if len(bases[i] & bases[j]) == 2]
    )
    with pytest.raises(NotAStag, match="neither side is graphic"):
        invert(h)
    assert brute_force_is_stag(h) is None


def test_invert_prefers_the_smaller_side():
    # the triangular prism (6 vertices, 9 edges) and its planar dual, the
    # triangular bipyramid (5 vertices, 9 edges), share their Aux
    prism = Graph.from_pairs(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    h = build_stag(prism).graph
    g = invert(h)
    assert (g.n, g.m) == (5, 9)
    assert are_isomorphic(build_stag(g).graph, h)[0]


def test_one_edge_perturbations_agree_with_the_oracle():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(3, 5)
        g = random_two_connected_graph(n, rng.randint(n, min(n + 2, n * (n - 1) // 2)),
                                       rng.randrange(1 << 30))
        h = build_stag(g).graph
        pairs = [(e.u, e.v) for e in h.edges]
        u, v = rng.sample(h.vertices, 2)
        if (min(u, v), max(u, v)) in pairs:
            pairs.remove((min(u, v), max(u, v)))
        else:
            pairs.append((u, v))
        h2 = Graph.from_pairs(pairs, vertices=h.vertices)
        try:
            g2 = invert(h2)
        except NotAStag as exc:
            assert str(exc).startswith(REJECTIONS), str(exc)
            assert brute_force_is_stag(h2) is None
        except Disconnected:
            continue
        else:
            assert are_isomorphic(build_stag(g2).graph, h2)[0]
            assert brute_force_is_stag(h2) is not None


def test_invert_k1_and_k2():
    assert invert(single_vertex_graph()).n == 1
    with pytest.raises(NotAStag):
        invert(Graph.from_pairs([(0, 1)]))


def test_invert_multiblock(bowtie, triangle_pendant):
    for g in (bowtie, triangle_pendant):
        h = build_stag(g).graph
        g2 = invert(h)
        assert are_isomorphic(build_stag(g2).graph, h)[0]


def test_certificate_masks_in_the_walk_bit_order():
    # The certificate compares its map with the walk's masks as they are,
    # so the two must agree on the bit of each edge for every mask width:
    # Aux(C_k) = K_k for k = 3..40, and block chains with more than 24 edges.
    for k in range(3, 41):
        g = invert(build_stag(cycle_graph(k)).graph)
        assert (g.n, g.m, count_spanning_trees(g)) == (k, k, k)
    for sizes, extra in (([13, 13], 0), ([9, 9, 9], 0), ([6, 5, 6, 5], 1), ([7, 6, 7, 6], 0)):
        h = build_stag(random_multiblock_graph(sizes, 7, extra_edges=extra)).graph
        g = invert(h)
        assert g.m > 24
        assert count_spanning_trees(g) == h.n


@pytest.mark.parametrize(
    "g, digest",
    [
        (complete_graph(5), "d77675d2c17a6ea128531ce4e24593d3389c9d0ac482e747323b3625c07f94b6"),
        (complete_graph(6), "8eddce40b1b4704b9ff4fe6fc35de5a35b9316d0c9b095d482dde503822ab00a"),
        (complete_graph(7), "1e73edb66866058a241deb24d2b99e327dee3b4759f7540cd67af65eeef20d8c"),
        (random_two_connected_graph(7, 16, 0),
         "bd6c8229c3266bc75e257e28696d9d3c8f56593905e5d191fed6707417e15daf"),
    ],
    ids=["K5", "K6", "K7", "2c(7,16,0)"],
)
def test_invert_output_is_pinned(g, digest):
    # sha256 of the edge list. No two edges of these graphs are in series,
    # so no series class is subdivided and every vertex and edge id comes
    # straight from the search's placement order.
    out = to_edgelist(invert(build_stag(g).graph))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _swap(pairs, rng):
    """A degree-preserving double-edge swap: remove ab and cd, add ac and
    bd, for four distinct vertices with ac and bd not yet edges."""
    present = set(pairs)
    while True:
        (a, b), (c, d) = rng.sample(pairs, 2)
        if rng.random() < 0.5:
            c, d = d, c
        ac, bd = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) == 4 and ac not in present and bd not in present:
            return sorted(present - {(a, b), tuple(sorted((c, d)))} | {ac, bd})


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        complete_graph(6),
        random_two_connected_graph(7, 16, 0),
        random_multiblock_graph([4, 5], 7),  # a two-block chain, 88 trees
    ],
    ids=["K5", "K6", "2c(7,16,0)", "chain(4,5)"],
)
def test_swaps_and_deletions_of_aux_are_rejected(g):
    # A swap keeps every degree and a deletion lowers two by one: the
    # inputs a certificate that checks degrees could let through.
    rng = random.Random(53)
    h = build_stag(g).graph
    pairs = sorted(h.edge_pairs())
    for k in range(8):
        if k % 2:
            perturbed = _swap(pairs, rng)
        else:
            perturbed = pairs[:]
            del perturbed[rng.randrange(len(perturbed))]
        h2 = Graph.from_pairs(perturbed, vertices=h.vertices)
        with pytest.raises(NotAStag) as exc:
            invert(h2)
        assert str(exc.value).startswith(REJECTIONS), str(exc.value)
        assert brute_force_is_stag(h2) is None


def _mask(g, eids):
    """A tree as the certificate reads it: edge id p of g is bit m - 1 - p."""
    return sum(1 << (g.m - 1 - p) for p in eids)


# Aux(C4) = K4: vertex k is the tree without edge k, and each tree has one
# chord. The triangle 0-1-2 with the pendant edge 2-3 (ids 0..3 in that
# order) has one chord too, and Aux = K3.
C4 = cycle_graph(4)
K4 = complete_graph(4)
PAN = Graph.from_pairs([(0, 1), (1, 2), (0, 2), (2, 3)])
K3 = complete_graph(3)


def _c4_tree(k):
    return _mask(C4, set(range(4)) - {k})


@pytest.mark.parametrize(
    "h, g, t0, phi, message",
    [
        (K4, C4, _c4_tree(0), {k: _c4_tree(k) for k in (1, 2, 3)}, None),
        # T0 = {01, 12, 23}, chord 02 on the cycle 01, 12, 02: vertex 1 drops
        # the pendant edge 23, off that cycle
        (K3, PAN, _mask(PAN, {0, 1, 3}), {1: _mask(PAN, {0, 1, 2}), 2: _mask(PAN, {0, 2, 3})},
         "certificate does not extend: vertex 1 is not one exchange from vertex 0"),
        (K4, C4, _c4_tree(0), {1: _c4_tree(1), 2: _c4_tree(1), 3: _c4_tree(3)},
         "certificate does not extend: vertices 1 and 2 map to the same tree"),
        (Graph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]), C4, _c4_tree(0),
         {k: _c4_tree(k) for k in (1, 2, 3)},
         "count mismatch: vertex 1 has degree 2, its tree has 3 exchanges"),
    ],
    ids=["isomorphism", "drop off the cycle", "same tree", "degree short"],
)
def test_certify_names_the_failed_condition(h, g, t0, phi, message):
    # _certify reads g only through the fundamental cycles of t0 and g.m
    args = (h, bfs(h, 0), t0, dict(phi), _fundamental_cycles(g, t0), g.m)
    if message is None:
        assert _certify(*args) is None
    else:
        with pytest.raises(NotAStag) as exc:
            _certify(*args)
        assert str(exc.value) == message


def _pivot_inputs():
    """K4-K6, C3-C40, seeded 2-connected graphs and block chains."""
    rng = random.Random(1801)
    graphs = [complete_graph(k) for k in (4, 5, 6)] + [cycle_graph(k) for k in range(3, 41)]
    while len(graphs) < 53:
        n = rng.randint(4, 7)
        m = rng.randint(n + 1, min(n + 6, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        if count_spanning_trees(g) <= 2000:
            graphs.append(g)
    for extra in (0, 0, 1, 1, 2):
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        graphs.append(random_multiblock_graph(sizes, rng.randrange(1 << 30), extra_edges=extra))
    return graphs


def test_packed_pivot_equals_the_fundamental_cycles_of_every_exchange():
    # Each exchange T -> T' = T - f + e of the walk, both ways, by
    # matroid.exchange on T's packed int: e is on one cycle of T, its own,
    # and f on it; the c fields of m bits of the pivoted int are the
    # fundamental cycles of T', it needs no more than c * m bits, and its
    # popcount less c is the degree of T' in Aux.
    graphs = _pivot_inputs()
    assert len(graphs) >= 40
    k2 = Graph.from_pairs([(0, 1)])
    for g in graphs:
        masks, pairs = _walk(g, 10_000)
        m, c = g.m, g.m - g.n + 1
        full, ones = (1 << m) - 1, _pack([1] * c, m)
        cycles = [_fundamental_cycles(g, t) for t in masks]
        packed = [_pack(cs, m) for cs in cycles]
        degree = [0] * len(masks)
        for i, j in pairs:
            degree[i] += 1
            degree[j] += 1
        for i, j in pairs:
            for a, b in ((i, j), (j, i)):
                t, t2 = masks[a], masks[b]
                e, f = t2 & ~t, t & ~t2
                own = [ce for ce in cycles[a] if ce & e]
                assert len(own) == 1 and own[0] & f
                out = exchange(packed[a], e, f, ones, full)
                assert out is not None and out.bit_length() <= c * m
                assert sorted((out >> s * m) & full for s in range(c)) == sorted(cycles[b])
                assert out.bit_count() - c == degree[b]
        # f off the cycle of e is no exchange: the certificate names it
        t = masks[0]
        for ce in cycles[0]:
            for p in range(m):
                f = 1 << p
                if t & f and not ce & f:
                    assert exchange(packed[0], ce & ~t, f, ones, full) is None
                    args = (k2, bfs(k2, 0), t, {1: (t ^ f) | (ce & ~t)}, cycles[0], m)
                    with pytest.raises(NotAStag) as exc:
                        _certify(*args)
                    assert str(exc.value) == (
                        "certificate does not extend: vertex 1 is not one exchange from vertex 0")


def test_invert_result_is_minimal():
    rng = random.Random(41)
    for _ in range(6):
        sizes = [rng.randint(3, 4) for _ in range(2)]
        g = random_multiblock_graph(sizes, rng.randrange(1 << 30))
        h = build_stag(g).graph
        g2 = invert(h)
        from stag import bridges

        assert bridges(g2) == []


# K5 less the edge 3-4: at vertex 0 the class of the edge 1-2 is {1, 2, 3, 4}
K5_LESS_ONE_EDGE = Graph.from_pairs(list(itertools.combinations(range(5), 2))[:-1])


def test_invert_rejections(p3, p4, c6, k13, petersen):
    for h in (p3, p4, c6, k13, petersen):
        with pytest.raises(NotAStag):
            invert(h)
    message = "not a line graph of a triangle-free graph: class [1, 2, 3, 4] of N(0) is not a clique"
    with pytest.raises(NotAStag, match=f"^{re.escape(message)}$"):
        invert(K5_LESS_ONE_EDGE)


def test_rejections_agree_with_brute_force(p3, p4, c6, k13):
    for h in (p3, p4, c6, k13, K5_LESS_ONE_EDGE):
        assert brute_force_is_stag(h) is None


def test_brute_force_finds_small_preimages(c3):
    h = build_stag(c3).graph  # K3
    g = brute_force_is_stag(h)
    assert g is not None
    assert are_isomorphic(build_stag(g).graph, h)[0]


def test_invert_disconnected():
    with pytest.raises(Disconnected):
        invert(Graph([0, 1, 2], [(0, 0, 1)]))


def test_invert_random_roundtrip():
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(3, 6)
        m = rng.randint(n, min(9, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        h = build_stag(g).graph
        g2 = invert(h)
        assert are_isomorphic(build_stag(g2).graph, h)[0]


class _Unreadable(list):
    """A pair list whose iteration fails, so any read of it shows."""

    def __iter__(self):
        raise AssertionError("the pairs of h were read")


@pytest.mark.parametrize(
    "g", [complete_graph(5), random_two_connected_graph(6, 10, 7), random_multiblock_graph([3, 4], 2)]
)
def test_invert_reads_only_the_adjacency_of_a_parsed_aux(g):
    h = parse_graph(to_edgelist(build_stag(g).graph))
    h.adj(h.vertices[0])  # builds the adjacency from the pairs; invert reads no pair after it
    h._pairs = _Unreadable(h._pairs)
    got = invert(h)
    assert h._edges is None and h._by_id is None
    want = invert(build_stag(g).graph)
    assert (got.vertices, got.edges, got.names) == (want.vertices, want.edges, want.names)


def test_enumerate_preimages(c3):
    more = enumerate_preimages(c3, 5)
    assert len(more) == 5
    base = build_stag(c3).graph
    for g in more:
        assert g.n > c3.n
        assert are_isomorphic(build_stag(g).graph, base)[0]


def test_enumerate_preimages_with_non_contiguous_edge_ids():
    g = Graph([0, 1, 2], [(0, 0, 1), (1, 1, 2), (3, 0, 2)])
    more = enumerate_preimages(g, 4)
    assert len(more) == 4
    base = build_stag(g).graph
    for h in more:
        assert set(g.edge_ids()) < set(h.edge_ids())
        assert are_isomorphic(build_stag(h).graph, base)[0]


def test_enumerate_preimages_rejects_bridged(triangle_pendant):
    with pytest.raises(NotMinimal):
        enumerate_preimages(triangle_pendant, 3)
