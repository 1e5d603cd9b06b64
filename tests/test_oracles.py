import pytest

from stag import Graph, TooLarge, are_isomorphic, build_stag, complete_graph
from stag.oracles import _atlas_preimages, brute_force_is_stag, brute_force_stag, brute_force_trees
from oracles import same_labeled


def test_brute_force_trees_counts(c3, k4, diamond):
    assert len(brute_force_trees(c3)) == 3
    assert len(brute_force_trees(k4)) == 16
    assert len(brute_force_trees(diamond)) == 8


def test_brute_force_trees_guard():
    with pytest.raises(TooLarge):
        brute_force_trees(complete_graph(8))


def test_brute_force_stag_guard():
    with pytest.raises(TooLarge, match="^16 trees exceed guard 15$"):
        brute_force_stag(complete_graph(4), max_trees=15)


def test_brute_force_stag_matches_fast_path(theta, bowtie):
    for g in (theta, bowtie):
        fast = build_stag(g)
        slow = brute_force_stag(g)
        assert same_labeled(fast.graph, slow.graph)


def test_atlas_tree_counts_equal_brute_force():
    # the Matrix-Tree determinant against (n-1)-subset filtering
    small = [(count, g) for count, g in _atlas_preimages() if g.n <= 6]
    assert len(small) == 75  # 1, 3, 11 and 60 on 3 to 6 vertices (OEIS A007146)
    for count, g in small:
        assert count == len(brute_force_trees(g)), g.edge_pairs()


def test_brute_force_is_stag_trivial_cases():
    k1 = Graph([0], [])
    assert brute_force_is_stag(k1) is not None
    k2 = Graph.from_pairs([(0, 1)])
    assert brute_force_is_stag(k2) is None


def test_brute_force_is_stag_positive(c4):
    h = build_stag(c4).graph  # K4
    g = brute_force_is_stag(h)
    assert g is not None
    assert are_isomorphic(build_stag(g).graph, h)[0]


def test_brute_force_is_stag_negative(p4, k13):
    assert brute_force_is_stag(p4) is None
    assert brute_force_is_stag(k13) is None
