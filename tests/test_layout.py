"""recognition.layout against an independent oracle that tries every
labelled tree, and on the nearly graphic matrices it once hung on."""

import random
import signal
from contextlib import contextmanager
from functools import lru_cache
from itertools import product

import networkx as nx
import pytest

from binary_matroids import fundamental_matrix, one_flip_matrix
from layout_reference import layout as reference_layout
from stag.generators import random_two_connected_graph
from stag.recognition import layout


def _path_ends(pairs):
    """The two ends of the edges pairs of a forest when they form one path,
    else None: at most two edges at a vertex, one vertex more than edges."""
    degree = {}
    for u, v in pairs:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if max(degree.values()) > 2 or len(degree) != len(pairs) + 1:
        return None
    return {v for v, d in degree.items() if d == 1}


@lru_cache(maxsize=None)
def _rooted_trees(r):
    """Every labelled tree on vertices 0..r, decoded from its Prüfer
    sequence, as the parent of each of the vertices 1..r with the tree
    rooted at 0."""
    trees = []
    for seq in product(range(r + 1), repeat=r - 1):
        degree = [1] * (r + 1)
        for v in seq:
            degree[v] += 1
        adj = {v: [] for v in range(r + 1)}
        for v in (*seq, None):
            leaf = min(u for u in range(r + 1) if degree[u] == 1)
            degree[leaf] -= 1
            if v is None:  # the last two vertices of degree one
                v = min(u for u in range(r + 1) if degree[u] == 1)
            degree[v] -= 1
            adj[leaf].append(v)
            adj[v].append(leaf)
        parent = {0: None}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        trees.append(tuple(parent[v] for v in range(1, r + 1)))
    return trees


def _realizable(tree, paths):
    """Whether some tree on len(tree) + 1 vertices lays every path out as
    a path: tree[i] is the edge from vertex i + 1 to its parent, tried over
    every labelled tree, so every edge labelling of every tree shape."""
    index = {f: i for i, f in enumerate(tree)}
    chains = [[index[f] for f in p] for p in paths.values()]
    return any(
        all(_path_ends([(i + 1, parent[i]) for i in chain]) for chain in chains)
        for parent in _rooted_trees(len(tree))
    )


def _assert_valid(tree, paths, found):
    place, ends = found
    assert sorted(place) == sorted(tree)
    laid = nx.Graph(list(place.values()))
    assert sorted(laid) == list(range(len(tree) + 1)) and nx.is_tree(laid)
    for c, p in paths.items():
        assert _path_ends([place[f] for f in p]) == set(ends[c]), c


def _connected(tree, paths):
    """Every path nonempty, and the paths join all tree nodes, as the
    chords of one root component do."""
    if not all(paths.values()):
        return False
    reached = {tree[0]}
    grown = True
    while grown:
        grown = False
        for p in paths.values():
            if p & reached and not p <= reached:
                reached |= p
                grown = True
    return reached == set(tree)


def _random_family(rng):
    """Paths over 3 to 6 tree nodes with shuffled names: each a union of
    series classes (runs of tree nodes), one in five a copy of an earlier
    path."""
    r = rng.randint(3, 6)
    names = rng.sample(range(30), r + 9)
    tree = names[:r]
    cut = sorted(rng.sample(range(1, r), rng.randint(r - 2, r - 1)))
    classes = [tree[a:b] for a, b in zip([0, *cut], [*cut, r])]
    paths = {}
    for c in names[r:r + rng.randint(r, 9)]:
        if paths and rng.random() < 0.2:
            paths[c] = set(paths[rng.choice(sorted(paths))])
        else:
            paths[c] = {f for cls in classes if rng.random() < 0.5 for f in cls}
    return tree, paths


def _inputs():
    rng = random.Random(31)
    while True:
        yield _random_family(rng)
        n = rng.randint(3, 7)
        m = rng.randint(n, min(2 * n, n * (n - 1) // 2))
        tree, paths = fundamental_matrix(random_two_connected_graph(n, m, rng.randrange(1000)))
        yield tree, {c: set(p) for c, p in paths.items()}
        paths[rng.choice(sorted(paths))] ^= {rng.choice(tree)}
        yield tree, paths


def test_layout_agrees_with_the_pruefer_oracle():
    outcomes = []
    for tree, paths in _inputs():
        if not _connected(tree, paths):
            continue
        found = layout(tree, paths)
        assert (found is not None) == _realizable(tree, paths), (tree, paths)
        if found is not None:
            _assert_valid(tree, paths, found)
        outcomes.append(found is not None)
        if len(outcomes) == 300:
            break
    assert outcomes.count(False) >= 40 and outcomes.count(True) >= 200


@contextmanager
def _deadline(seconds):
    """Fail the test once the body has run for seconds, so that a search
    that hangs fails the test instead. The failure carries no traceback:
    pytest cannot render one for some of the frames an alarm interrupts."""

    def expire(signum, frame):
        pytest.fail(f"ran past {seconds} s", pytrace=False)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_an_overrun_fails_the_test_without_a_traceback():
    with pytest.raises(pytest.fail.Exception, match=r"^ran past 0\.05 s$") as failed:
        with _deadline(0.05):
            while True:
                pass
    assert not failed.value.pytrace


@pytest.mark.parametrize("flip, graphic", [(2, False), (7, False), (3, True)])
def test_layout_of_nearly_graphic_matrices_returns_promptly(flip, graphic):
    # The complete search once ordered the tree nodes of each series class
    # every way, and ran past 20 s on flips 2 and 7.
    tree, paths = one_flip_matrix(24, 29, 3, flip)
    with _deadline(1.0):
        found = layout(tree, paths)
    assert (found is not None) == graphic
    if graphic:
        _assert_valid(tree, paths, found)


def _has_series_class(tree, paths):
    """Whether two tree nodes lie on exactly the same cycles."""
    return len({frozenset(c for c, p in paths.items() if f in p) for f in tree}) < len(tree)


def _in_order(found):
    return found and [list(d.items()) for d in found]


def test_layout_matches_the_reference_search():
    # The golden corpus reaches layout through its positive inverts, where
    # the search rarely backtracks; these matrices backtrack and fail too.
    outcomes = []
    for n, m in [(12, 20), (16, 24), (20, 28), (24, 32), (28, 36), (32, 40), (36, 45), (40, 50)]:
        for seed in (0, 3):
            graphic = fundamental_matrix(random_two_connected_graph(n, m, seed))
            for tree, paths in [graphic, *(one_flip_matrix(n, m, seed, flip) for flip in range(3))]:
                found = layout(tree, paths)
                # invert numbers the edges in the order of place and ends
                assert _in_order(found) == _in_order(reference_layout(tree, paths)), (n, m, seed)
                outcomes.append((_has_series_class(tree, paths), found is not None))
    assert len(outcomes) == 64
    assert sum(s for s, _ in outcomes) >= 10
    assert 10 <= sum(f for _, f in outcomes) <= 54
