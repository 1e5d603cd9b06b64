import hashlib
import itertools
import json
import random

import networkx as nx
import pytest

from stag import (
    Graph,
    build_stag,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    enumerate_spanning_trees,
    serialize_trees,
    single_vertex_graph,
    stag_to_dot,
    stag_to_json,
)
from stag.aux_graph import StagGraph
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from stag import spanning_trees
from stag.oracles import brute_force_stag, brute_force_trees
from oracles import same_labeled
from paper_lemmas import (
    Unannotated,
    ground_truth_cliques,
    neighborhood_partitions,
    product_of_block_stags,
)


def test_cycle_gives_complete_stag():
    for n in range(3, 7):
        s = build_stag(cycle_graph(n))
        assert s.graph.n == n
        assert s.graph.m == s.graph.n * (s.graph.n - 1) // 2


def test_tree_gives_single_vertex(p4):
    s = build_stag(p4)
    assert s.graph.n == 1
    assert s.graph.m == 0


def test_matches_brute_force_on_fixtures(c3, c4, c5, p3, k4, diamond, theta,
                                         bowtie, triangle_pendant):
    for g in (c3, c4, c5, p3, k4, diamond, theta, bowtie, triangle_pendant):
        s = build_stag(g)
        b = brute_force_stag(g)
        assert [t.key for t in s.trees] == [t.key for t in b.trees]
        assert same_labeled(s.graph, b.graph)


def test_partition_counts(k4, diamond, theta):
    for g in (k4, diamond, theta):
        s = build_stag(g)
        n, m = g.n, g.m
        for v in s.graph.vertices:
            p = neighborhood_partitions(s, v)
            assert len(p.cut_classes) == n - 1
            assert len(p.cycle_classes) == m - n + 1
            covered = set()
            for _, ws in p.cut_classes:
                assert not (covered & ws)
                covered |= ws
            assert covered == set(s.graph.adj(v))


def test_partitions_are_cliques(theta):
    s = build_stag(theta)
    for v in s.graph.vertices:
        p = neighborhood_partitions(s, v)
        for _, ws in p.cut_classes + p.cycle_classes:
            for a, b in itertools.combinations(sorted(ws), 2):
                assert s.graph.has_edge(a, b)


def test_partitions_require_annotation(c4):
    s = build_stag(c4)
    bare = StagGraph(s.graph, None, None)
    with pytest.raises(Unannotated):
        neighborhood_partitions(bare, 0)
    with pytest.raises(Unannotated):
        ground_truth_cliques(bare)


def test_ground_truth_cliques_c4(c4):
    s = build_stag(c4)
    cliques = ground_truth_cliques(s)
    cycle = [c for c in cliques if c.tag == "cycle"]
    cut = [c for c in cliques if c.tag == "cut"]
    assert len(cycle) == 1 and cycle[0].size == 4
    assert all(c.size == 2 for c in cut)


def test_ground_truth_cliques_k4(k4):
    s = build_stag(k4)
    cliques = ground_truth_cliques(s)
    cycle_sizes = {c.size for c in cliques if c.tag == "cycle"}
    cut_sizes = {c.size for c in cliques if c.tag == "cut"}
    assert cycle_sizes == {3, 4}
    # degree cuts give size 3; the 2+2 vertex bipartitions give size 4
    assert cut_sizes == {3, 4}


def test_ground_truth_matches_generic_clique_search():
    rng = random.Random(17)
    graphs = [cycle_graph(4), complete_graph(4)]
    for _ in range(6):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(9, n * (n - 1) // 2))
        graphs.append(random_connected_graph(n, m, rng.randrange(1 << 30)))
    for g in graphs:
        s = build_stag(g)
        if s.graph.n < 3:
            continue
        gt = {frozenset(c.members) for c in ground_truth_cliques(s)
              if c.size >= 3}
        h = nx.Graph(e.endpoints() for e in s.graph.edges)
        generic = {frozenset(c) for c in nx.find_cliques(h) if len(c) >= 3}
        assert gt == generic


def test_triangle_lies_in_exactly_one_ground_truth_clique(k4, theta):
    for g in (k4, theta):
        s = build_stag(g)
        cliques = ground_truth_cliques(s)
        h = s.graph
        for tri in itertools.combinations(h.vertices, 3):
            a, b, c = tri
            if not (h.has_edge(a, b) and h.has_edge(b, c) and h.has_edge(a, c)):
                continue
            homes = [q for q in cliques if set(tri) <= q.members]
            assert len(homes) == 1


def test_stag_json_and_dot(c3):
    s = build_stag(c3)
    doc = json.loads(stag_to_json(s))
    assert doc["vertices"] == ["0", "1", "2"]
    assert len(doc["edges"]) == 3
    assert doc["trees"] == [[0, 1], [0, 2], [1, 2]]
    dot = stag_to_dot(s)
    assert dot.count("--") == 3

    bare = StagGraph(s.graph, None, None)
    assert json.loads(stag_to_json(bare))["trees"] is None


def _reference_json(s):
    """The document built whole and encoded by json.dumps."""
    doc = {
        "vertices": [str(v) for v in s.graph.vertices],
        "edges": [[str(e.u), str(e.v)] for e in s.graph.edges],
        "trees": [list(t.key) for t in s.trees] if s.annotated else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_stag_to_json_matches_json_dumps():
    rng = random.Random(808)
    stags = [build_stag(random_connected_graph(1, 0, 1))]
    for _ in range(8):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, min(n + 3, n * (n - 1) // 2))
        stags.append(build_stag(random_connected_graph(n, m, rng.randrange(1 << 30))))
    chain = random_multiblock_graph([3, 4, 3], rng.randrange(1 << 30))
    stags.append(build_stag(chain))
    # unannotated: the block product carries no trees
    stags.append(product_of_block_stags(chain))
    # vertex ids that are not 0..n-1
    stags.append(StagGraph(Graph([-3, 5, 12], [(7, -3, 12), (2, 5, 12)]), None, None))
    for s in stags:
        assert stag_to_json(s) == _reference_json(s)
    assert json.loads(stag_to_json(stags[-2]))["trees"] is None


def test_stag_to_json_rows_and_pairs_give_the_same_bytes(k4, k5, c6, theta):
    # A fresh stag writes its edges from the walk's rows; reading its edges
    # releases the rows, and it writes them from its pairs instead.
    for g in (k4, k5, c6, theta, random_multiblock_graph([4, 3, 4], 2)):
        rows = stag_to_json(build_stag(g))
        s = build_stag(g)
        assert len(s.graph.edges) == s.graph.m
        pairs = stag_to_json(s)
        assert rows == pairs == _reference_json(s)


def test_stag_vertices_ordered_by_tree_key(theta):
    s = build_stag(theta)
    keys = [t.key for t in s.trees]
    assert keys == sorted(keys)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("make, json_digest, dot_digest", [
    (lambda: complete_graph(5),
     "612d4233fd5af897d993c4ed06160d1263a4a595fde05c92e8f732907897cd4a",
     "8fbb3ae3dea90321947e5f0cd42a641f606d81088b9431815788919549815791"),
    (lambda: random_two_connected_graph(8, 12, 7),
     "fd430584959ceced40ce879f34936b121f39701375ce90cdcca4b5563ad0fa43",
     "9bcdc1b3a889ced7b0751da28fc5f43ddf031e4ec37852b4b368702d97f0c8e9"),
    (lambda: random_multiblock_graph([4, 4, 4], 1),
     "00e38be73218ff8cc2da41c0129dd41ad1d615fa676cb911687d23cb9c35289e",
     "028b3866860a8b73e04ddb99fea3c0a56240ae8d29bb993d54731e2947b85405"),
    (lambda: complete_graph(7),
     "79c35a728a7f6840016e333c59958622f5a325af06cf1423e952ac2c44bb9722",
     "9b4d7c15e5f16e94a8a2b1af00fd4401f972373343789830e747273dd4bad9d2"),
], ids=["k5", "2c-8-12-7", "blocks-444-1", "k7"])
def test_aux_output_bytes_are_pinned(make, json_digest, dot_digest):
    # Digests taken from the earlier two-pass build (enumerate, then each
    # tree's type-2 neighbours); vertex order, edge ids and both text
    # formats must not drift.
    s = build_stag(make())
    assert _sha256(stag_to_json(s)) == json_digest
    assert _sha256(stag_to_dot(s)) == dot_digest


def test_exchange_walk_matches_the_definition(k5, c6, theta):
    rng = random.Random(4004)
    pool = [k5, c6, theta]
    while len(pool) < 13:
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        g = random_multiblock_graph(sizes, rng.randrange(1 << 30))
        if count_spanning_trees(g) <= 400:
            pool.append(g)
    for g in pool:
        s = build_stag(g)
        assert [t.key for t in enumerate_spanning_trees(g)] == [t.key for t in s.trees]
        sets = [t.edge_set for t in s.trees]
        want = {(i, j) for i, j in itertools.combinations(range(len(sets)), 2)
                if len(sets[i] ^ sets[j]) == 2}
        assert [(e.u, e.v) for e in s.graph.edges] == sorted(want)


def test_trees_stay_undecoded_until_one_is_read(monkeypatch):
    calls = []
    decode = spanning_trees._decode

    def counting(masks, heads, empty):
        calls.append(empty)
        return decode(masks, heads, empty)

    monkeypatch.setattr(spanning_trees, "_decode", counting)
    g = random_multiblock_graph([4, 5], 3)
    assert serialize_trees(enumerate_spanning_trees(g)) and calls == [""]
    calls.clear()
    s = build_stag(g)
    assert s.annotated and len(s.trees) == s.graph.n and calls == []
    stag_to_json(s), stag_to_dot(s)
    assert calls == ["", ""]  # the text decode only: no tree, no key tuple
    assert s.trees._trees is None
    first = s.trees[0]
    assert calls == ["", "", ()]
    list(s.trees), s.trees[-1], neighborhood_partitions(s, 1)
    assert calls == ["", "", ()] and s.trees[0] is first


def test_trees_read_as_the_enumeration(k5, c6, theta):
    h = random_two_connected_graph(7, 11, 8)
    ids = random.Random(19).sample(range(60), h.m)
    gapped = Graph(h.vertices, [(ids[k], e.u, e.v) for k, e in enumerate(h.edges)])
    for g in (k5, c6, theta, single_vertex_graph(), gapped):
        s, ref = build_stag(g), brute_force_trees(g)
        assert len(s.trees) == len(ref) == len(enumerate_spanning_trees(g))
        assert [t.key for t in enumerate_spanning_trees(g)] == [t.key for t in ref]
        assert [t.key for t in tuple(s.trees)] == [t.key for t in ref]
        for i in (-1, -len(ref), len(ref) // 2):
            assert s.trees[i] == ref[i] and s.trees[i].edge_set == ref[i].edge_set
        assert all(t.host is g for t in s.trees)
        with pytest.raises(IndexError):
            s.trees[len(ref)]
