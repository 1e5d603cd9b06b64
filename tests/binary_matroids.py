"""Binary matroids by brute force, and crafted near-basis graphs, for tests.

A binary matroid is given by the columns of a GF(2) matrix, each an int
whose bit i is row i. Its bases are listed as the r-subsets of columns of
full rank r and joined by single exchanges; nothing here comes from the
exchange walk or the certificate.

    PYTHONPATH=src:tests python -c "from binary_matroids import write_crafted; \
        write_crafted(60, 80, 1, 1, 'neg.txt')"

writes the (60, 80, 1) flip-1 crafted negative as an edge list, and

    PYTHONPATH=src:tests python -c "from binary_matroids import write_one_flip_basis_graph; \
        write_one_flip_basis_graph(18, 22, 3, 2, 'flip.txt')"

the basis graph of the (18, 22, 3) flip-2 one-flip matroid.
"""

from __future__ import annotations

import random
from itertools import combinations

from stag import Graph, to_edgelist
from stag.generators import random_two_connected_graph
from stag.graph_core import bfs
from stag.matroid import _fundamental_cycles, _greedy_tree
from paper_lemmas import fundamental_cycle_edges

# Standard representations [I | A], columns as ints over the rows.
F7 = [1, 2, 4, 3, 5, 6, 7]
R10 = [v for v in range(32) if v.bit_count() == 3]  # the 5-tuples with three ones


def rank(columns):
    """GF(2) rank by elimination on the columns as ints."""
    pivots = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def dual(columns, r):
    """[A^T | I] from [I | A] (the first r columns the identity of r rows):
    column i of A^T is row i of A."""
    a = columns[r:]
    return [sum(1 << j for j, col in enumerate(a) if col >> i & 1) for i in range(r)] + [
        1 << j for j in range(len(a))
    ]


def bases(columns):
    """The bases of the matroid of the columns, as sorted index tuples."""
    r = rank(columns)
    return [b for b in combinations(range(len(columns)), r)
            if rank([columns[i] for i in b]) == r]


def fundamental_circuits(columns, basis):
    """{e: mask} for each element e off basis, in ascending order: the basis
    elements i, as bits 1 << i, whose columns sum to column e over GF(2)."""
    pivots = {}  # top bit: (column reduced over basis, the elements summed into it)
    for f in sorted(basis):
        v, used = columns[f], 1 << f
        while v.bit_length() - 1 in pivots:
            w, more = pivots[v.bit_length() - 1]
            v, used = v ^ w, used ^ more
        pivots[v.bit_length() - 1] = (v, used)
    circuits = {}
    for e in sorted(set(range(len(columns))) - set(basis)):
        v, used = columns[e], 0
        while v:
            w, more = pivots[v.bit_length() - 1]
            v, used = v ^ w, used ^ more
        circuits[e] = used
    return circuits


def basis_graph(bs):
    """The exchange graph of the bases bs: one vertex per basis in order,
    an edge for each two bases that share all but one element."""
    sets = [frozenset(b) for b in bs]
    r = len(sets[0])
    pairs = [(i, j) for i, j in combinations(range(len(sets)), 2) if len(sets[i] & sets[j]) == r - 1]
    return Graph.from_pairs(pairs, vertices=range(len(sets)))


def random_binary_matrix(rng, max_columns=10, max_rows=5):
    """Uniform columns of 1..max_rows rows, as many as rows..max_columns:
    loops, parallel elements and rank below the row count all occur."""
    rows = rng.randint(1, max_rows)
    return [rng.randrange(1 << rows) for _ in range(rng.randint(rows, max_columns))]


def has_parallel_pair_component(columns):
    """True when two elements form a connected component U(1,2) of the
    matroid: parallel, and every basis holds exactly one of them. Its
    basis graph is then a product with K2, whose edges lie in no triangle."""
    r = rank(columns)
    for i, j in combinations(range(len(columns)), 2):
        rest = [c for k, c in enumerate(columns) if k not in (i, j)]
        if columns[i] and columns[i] == columns[j] and rank(rest) == r - 1:
            return True
    return False


def crafted_negative(n, m, seed, flip):
    """One vertex joined to L(B), B the fundamental graph (tree edges
    against chords, f ~ e when f is on the cycle of e) of
    random_two_connected_graph(n, m, seed) for its BFS tree from vertex
    0, with the entry at one tree edge and one chord drawn by
    random.Random(flip) flipped. This is the closed neighborhood of one
    vertex of a basis graph at most, so no Aux graph."""
    g = random_two_connected_graph(n, m, seed)
    tree = {eid for _, eid in bfs(g, g.vertices[0]).values() if eid is not None}
    chords = sorted(set(g.edge_ids()) - tree)
    entries = {(f, e) for e in chords for f in fundamental_cycle_edges(g, tree, e)[1:]}
    rng = random.Random(flip)
    entries ^= {(rng.choice(sorted(tree)), rng.choice(chords))}
    nodes = sorted(entries)
    pairs = [(0, i) for i in range(1, len(nodes) + 1)]
    pairs += [(i + 1, j + 1) for i, j in combinations(range(len(nodes)), 2)
              if nodes[i][0] == nodes[j][0] or nodes[i][1] == nodes[j][1]]
    return Graph.from_pairs(pairs)


def write_crafted(n, m, seed, flip, path):
    with open(path, "w") as out:
        out.write(to_edgelist(crafted_negative(n, m, seed, flip)))


def fundamental_matrix(g):
    """(tree, paths) as recognition.layout takes them: the fundamental
    circuits of g, its edge ids 0..m - 1 as the generators give them, at
    the exchange walk's start tree (Kruskal's over the edge ids in
    descending order), tree the tree edge ids in ascending order and
    paths[c] the tree edges on chord c's cycle."""
    m = g.m
    start = _greedy_tree(g, reversed(range(m)))
    tree = [p for p in range(m) if start >> (m - 1 - p) & 1]
    chords = [p for p in range(m) if not start >> (m - 1 - p) & 1]
    return tree, {c: {f for f in tree if cycle >> (m - 1 - f) & 1}
                  for c, cycle in zip(chords, _fundamental_cycles(g, start))}


def one_flip_matrix(n, m, seed, flip):
    """fundamental_matrix of random_two_connected_graph(n, m, seed) with
    the entry at one tree edge and one chord, drawn as crafted_negative
    draws it by random.Random(flip), flipped: a nearly graphic matroid."""
    tree, paths = fundamental_matrix(random_two_connected_graph(n, m, seed))
    rng = random.Random(flip)
    f = rng.choice(tree)
    paths[rng.choice(sorted(paths))] ^= {f}
    return tree, paths


def one_flip_basis_graph(n, m, seed, flip):
    """The basis graph of the binary matroid [I | A] of one_flip_matrix,
    its vertices the bases in the order a BFS over single exchanges from
    the start tree reaches them, so vertex 0 is the start tree."""
    tree, paths = one_flip_matrix(n, m, seed, flip)
    row = {f: 1 << i for i, f in enumerate(tree)}
    column = {f: row[f] for f in tree} | {c: sum(row[f] for f in p) for c, p in paths.items()}
    columns = [column[p] for p in range(len(column))]
    start = frozenset(tree)
    index = {start: 0}
    order = [start]
    pairs = []
    for i, b in enumerate(order):  # grows as the BFS finds new bases
        for e, used in fundamental_circuits(columns, b).items():
            for f in sorted(f for f in b if used >> f & 1):  # e's circuit in b
                nb = b - {f} | {e}
                if nb not in index:
                    index[nb] = len(order)
                    order.append(nb)
                if index[nb] > i:
                    pairs.append((i, index[nb]))
    return Graph.from_pairs(pairs, vertices=range(len(order)))


def write_one_flip_basis_graph(n, m, seed, flip, path):
    with open(path, "w") as out:
        out.write(to_edgelist(one_flip_basis_graph(n, m, seed, flip)))
