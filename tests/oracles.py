"""Brute-force references that only the tests call: the minimal edge cuts
and the circumference that param_report's bounds are checked against,
and equality of two graphs as labeled graphs.

stag.oracles keeps the references the benchmark's answer checks run.
"""

from collections import namedtuple

from stag.errors import Disconnected, StagError, TooLarge
from stag.graph_core import bfs, is_connected

_MAX_N = 12  # minimal_edge_cuts and circumference search 2^(n-1) sides or all paths


class Acyclic(StagError):
    pass


def same_labeled(a, b):
    """Equality as labeled graphs (ignoring edge ids and names)."""
    return a.vertices == b.vertices and set(a.edge_pairs()) == set(b.edge_pairs())


class EdgeCut(namedtuple("EdgeCut", "edge_ids sides")):
    __slots__ = ()


def minimal_edge_cuts(g):
    """All inclusion-minimal edge cuts, by brute force over bipartitions
    whose sides both induce connected subgraphs: a BFS from each side over
    the edges off the cut reaches that whole side."""
    if g.n > _MAX_N:
        raise TooLarge(f"n={g.n} exceeds guard {_MAX_N}")
    if not is_connected(g):
        raise Disconnected("edge cuts need a connected graph")
    if g.n == 1:
        return []
    v0 = g.vertices[0]
    others = g.vertices[1:]
    every = set(g.edge_ids())
    cuts = []
    for mask in range(2 ** len(others) - 1):
        side1 = {v0} | {others[i] for i in range(len(others)) if mask >> i & 1}
        cut = frozenset(e.eid for e in g.edges if (e.u in side1) != (e.v in side1))
        rest = every - cut
        w = next(v for v in others if v not in side1)
        if len(bfs(g, v0, rest)) == len(side1) and len(bfs(g, w, rest)) == g.n - len(side1):
            cuts.append(EdgeCut(cut, (frozenset(side1), frozenset(g.vertices) - side1)))
    return sorted(cuts, key=lambda c: (len(c.edge_ids), sorted(c.edge_ids)))


def circumference(g):
    """Length of a longest simple cycle, by exhaustive path search."""
    if g.n > _MAX_N:
        raise TooLarge(f"n={g.n} exceeds guard {_MAX_N}")
    best = 0

    def extend(start, v, visited, length):
        nonlocal best
        for w in g.adj(v):
            if w == start and length >= 2:
                best = max(best, length + 1)
            elif w > start and w not in visited:
                visited.add(w)
                extend(start, w, visited, length + 1)
                visited.discard(w)

    for s in g.vertices:
        extend(s, s, {s}, 0)
    if best == 0:
        raise Acyclic("graph has no cycle")
    return best
