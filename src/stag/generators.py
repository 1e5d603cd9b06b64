"""Seeded random graph generators used by the stress tests and the CLI.

Each generator returns a Graph that holds only its (u, v) pairs, u < v, in
edge id order: m, edge_pairs() and the serialisers read the pairs, and the
Edge tuples, adjacency and id index are built on first read, as for a
parsed graph. tests/test_generators.py pins the bytes each one writes.

Chords come last: _chords shuffles the indices of the absent pairs, in
lexicographic pair order, with the generator's own Random, which nothing
reads after it. It takes one int of memory and one draw per absent pair,
so both grow with n squared."""

import random
from bisect import bisect_right

from .graph_core import Graph


def random_connected_graph(n, m, seed):
    """Random connected graph with exactly n vertices and m edges: a
    random tree plus distinct chords."""
    rng = random.Random(seed)
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < n - 1 or m > n * (n - 1) // 2:
        raise ValueError("edge count out of range for a connected simple graph")
    return Graph._trusted(n, _chords(n, m, [(rng.randrange(v), v) for v in range(1, n)], rng))


def random_two_connected_graph(n, m, seed):
    """Random 2-connected graph with exactly n vertices and m edges.

    Built by ear addition: a base cycle, some ears with internal vertices
    (each such ear spends one edge beyond its vertex count), then chords
    (ears with no internal vertices) up to the edge budget."""
    return Graph._trusted(n, _two_connected_pairs(n, m, random.Random(seed)))


def _two_connected_pairs(n, m, rng):
    """The pairs of random_two_connected_graph(n, m, seed), in edge id order,
    each (u, v) with u < v, drawn from rng = random.Random(seed)."""
    if n < 3:
        raise ValueError("2-connected graphs need at least three vertices")
    if m < n or m > n * (n - 1) // 2:
        raise ValueError("edge count out of range for a 2-connected simple graph")
    max_ears = min(m - n, n - 3)
    ears = rng.randint(0, max_ears) if max_ears > 0 else 0
    lengths = []
    if ears:
        total = rng.randint(ears, n - 3)
        cuts = sorted(rng.sample(range(1, total), ears - 1)) if ears > 1 else []
        bounds = [0] + cuts + [total]
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    base = n - sum(lengths)
    pairs = [(i, i + 1) for i in range(base - 1)] + [(0, base - 1)]
    used = base
    for length in lengths:
        a = rng.randrange(used)
        b = rng.randrange(used)
        while b == a:
            b = rng.randrange(used)
        chain = [a] + list(range(used, used + length)) + [b]
        pairs.extend((x, y) if x < y else (y, x) for x, y in zip(chain, chain[1:]))
        used += length
    return _chords(n, m, pairs, rng)


def _chords(n, m, pairs, rng):
    """pairs (each u < v), extended in place by m - len(pairs) chords as rng
    shuffles the other pairs.

    The absent pairs are shuffled as their indices in lexicographic pair
    order, one int each, and only the kept ones are decoded. A shuffle's
    draws depend only on the list's length, so this writes the same pairs
    as shuffling the (u, v) tuples. No caller reads rng afterwards, so a
    shuffle that would keep nothing is skipped."""
    if m == len(pairs):
        return pairs
    starts = [u * (2 * n - u - 1) // 2 for u in range(n)]
    missing = []
    gap = 0
    for i in sorted({starts[u] + v - u - 1 for u, v in pairs}):
        missing.extend(range(gap, i))
        gap = i + 1
    missing.extend(range(gap, n * (n - 1) // 2))
    rng.shuffle(missing)
    for i in missing[: m - len(pairs)]:
        u = bisect_right(starts, i) - 1
        pairs.append((u, i - starts[u] + u + 1))
    return pairs


def random_multiblock_graph(block_sizes, seed, extra_edges=2):
    """Chain of random 2-connected blocks glued at shared cut vertices."""
    rng = random.Random(seed)
    if not block_sizes:
        raise ValueError("need at least one block size")
    pairs = []
    n = 0
    for size in block_sizes:
        cap = size * (size - 1) // 2
        m = min(cap, size + rng.randint(0, extra_edges))
        block = _two_connected_pairs(size, m, random.Random(rng.randrange(1 << 30)))
        # block vertex 0 is the previous block's last vertex, n - 1, and
        # the others take the next free ids in order
        shift = n - 1 if n else 0
        pairs.extend([(u + shift, v + shift) for u, v in block])
        n = shift + size
    return Graph._trusted(n, pairs)
