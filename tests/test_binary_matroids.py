"""invert against brute-force binary matroids: the certificate accepts the
basis graph of every binary matroid and runs before any layout. The
exchange walk lists the bases and exchanges of every binary matroid."""

import itertools
import random

import pytest

from binary_matroids import (
    F7,
    R10,
    bases,
    basis_graph,
    crafted_negative,
    dual,
    fundamental_circuits,
    has_parallel_pair_component,
    random_binary_matrix,
)
from stag import NotAStag, ValidationFailed, are_isomorphic, build_stag, complete_graph, invert
from stag import recognition
from stag.matroid import _pack, basis_walk

NO_REALIZATION = ("neither side is graphic", "no simple graph realizes")
CRAFTED = [(*case, flip) for case in ((20, 30, 3), (30, 45, 1), (40, 60, 2), (60, 80, 1))
           for flip in (0, 1, 2)]


def _no_layout(tree, paths):
    return None


def test_oracle_counts_the_bases():
    assert len(bases(F7)) == 28
    assert len(bases(dual(F7, 3))) == 28
    assert len(bases(R10)) == 162
    assert len(bases([1, 2, 3])) == 3  # U(2,3), the triangle
    # each basis has three chords on 3-circuits and one on a 4-circuit
    assert basis_graph(bases(F7)).m == 28 * (2 + 2 + 2 + 3) // 2


@pytest.mark.parametrize(
    "columns, elements, rank",
    [(F7, 7, 3), (dual(F7, 3), 7, 3), (R10, 10, 5)],
    ids=["F7", "F7*", "R10"],
)
def test_non_graphic_binary_matroids_are_certified_then_named(columns, elements, rank):
    # The smaller side is the basis: F7* reads as F7, its dual.
    with pytest.raises(NotAStag) as exc:
        invert(basis_graph(bases(columns)))
    message = str(exc.value)
    assert message.startswith("neither side is graphic")
    assert message.endswith(f"a binary matroid on {elements} elements of rank {rank}")


@pytest.mark.parametrize(
    "columns, message",
    [
        ([1, 2, 3, 3], "a binary matroid on 4 elements of rank 2: elements 1 and 2 are "
                       "parallel; in its dual, elements 0 and 3 are parallel"),
        ([1, 2, 4, 7, 7], "a binary matroid on 5 elements of rank 2: elements 0 and 3 are "
                          "parallel; in its dual, elements 1 and 2 are parallel"),
    ],
    ids=["C3+1", "C4+1"],
)
def test_parallel_elements_are_named(columns, message):
    # A cycle with one edge doubled: both sides are graphic, and every
    # realization of either has two parallel edges, so no simple preimage.
    with pytest.raises(NotAStag) as exc:
        invert(basis_graph(bases(columns)))
    assert str(exc.value) == f"no simple graph realizes root block 0 of N(0), {message}"


def _walked(columns, bs):
    """basis_walk on the matroid of the columns, its bases bs, element i at
    bit m - 1 - i as the walk orders a graph's edges, from its least basis
    mask: the bases as sorted index tuples and the exchange pairs, both read
    in ascending key order as spanning_trees._walk reads them."""
    m = len(columns)
    bit = [1 << (m - 1 - i) for i in range(m)]
    start = min(sum(bit[i] for i in b) for b in bs)
    basis = [i for i in range(m) if start & bit[i]]
    circuits = [bit[e] | sum(bit[f] for f in basis if used >> f & 1)
                for e, used in fundamental_circuits(columns, basis).items()]
    masks, rows = basis_walk(start, _pack(circuits, m), m, len(bs))
    keys = [tuple(i for i in range(m) if mask & bit[i]) for mask in reversed(masks)]
    return keys, [(u, v) for u, row in enumerate(reversed(rows)) for v in reversed(row)]


@pytest.mark.parametrize(
    "columns, counts",
    [(F7, (28, 126)), (dual(F7, 3), (28, 126)), (R10, (162, 1305))],
    ids=["F7", "F7*", "R10"],
)
def test_the_walk_lists_the_bases_of_non_graphic_matroids(columns, counts):
    bs = bases(columns)
    keys, pairs = _walked(columns, bs)
    assert (len(keys), len(pairs)) == counts
    assert keys == bs
    assert pairs == list(basis_graph(bs).edge_pairs())


def test_the_walk_lists_the_bases_of_random_binary_matroids():
    # loops, parallel elements, coloops and rank 0 all occur
    rng = random.Random(4301)
    for _ in range(300):
        columns = random_binary_matrix(rng)
        bs = bases(columns)
        keys, pairs = _walked(columns, bs)
        assert keys == bs, columns
        assert pairs == list(basis_graph(bs).edge_pairs()), columns


def test_every_binary_basis_graph_passes_the_certificate(monkeypatch):
    # A U(1,2) component (two parallel elements that no other element
    # meets) multiplies the basis graph by K2, whose edges lie in no
    # triangle: no simple graph has a block with two spanning trees, so the
    # root stage rejects it before the certificate, by design.
    rng = random.Random(2101)
    checked = 0
    while checked < 120:
        columns = random_binary_matrix(rng)
        h = basis_graph(bases(columns))
        if has_parallel_pair_component(columns):
            with pytest.raises(NotAStag, match="no triangle"):
                invert(h)
            continue
        checked += 1
        try:
            g = invert(h)
        except NotAStag as exc:
            assert str(exc).startswith(NO_REALIZATION), (columns, str(exc))
        else:
            assert are_isomorphic(build_stag(g).graph, h)[0], columns
        if h.n > 1:
            with monkeypatch.context() as patch:
                patch.setattr(recognition, "layout", _no_layout)
                with pytest.raises(NotAStag) as exc:
                    invert(h)
                assert str(exc.value).startswith(NO_REALIZATION), (columns, str(exc.value))


def test_the_octahedron_is_rejected():
    # U(2,4), the smallest non-binary matroid: its basis graph is K_{2,2,2}.
    h = basis_graph(list(itertools.combinations(range(4), 2)))
    assert (h.n, h.m) == (6, 12)
    with pytest.raises(NotAStag, match="certificate does not extend"):
        invert(h)


def _layout_raises(tree, paths):
    raise RuntimeError("layout ran")


@pytest.mark.parametrize("n, m, seed, flip", CRAFTED)
def test_crafted_negatives_are_rejected_before_any_layout(monkeypatch, n, m, seed, flip):
    h = crafted_negative(n, m, seed, flip)
    monkeypatch.setattr(recognition, "layout", _layout_raises)
    with pytest.raises(NotAStag, match="count mismatch"):
        invert(h)


def test_a_misplaced_tree_edge_is_a_program_fault(monkeypatch):
    # Swapping two tree edges of M(K4) moves some chord's cycle, as no two
    # of its elements are in series: the check against the root catches it.
    real = recognition.layout

    def swapped(tree, paths):
        place, ends = real(tree, paths)
        a, b = list(place)[:2]
        place[a], place[b] = place[b], place[a]
        return place, ends

    h = build_stag(complete_graph(4)).graph
    monkeypatch.setattr(recognition, "layout", swapped)
    with pytest.raises(ValidationFailed, match="does not close its root circuit"):
        invert(h)
