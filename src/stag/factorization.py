"""Cartesian-product prime factorization and the block-product construction.

The factor edge-classes come from the square/triangle relation: two
incident edges are related if they span a triangle, have no completing
square, or complete more than one square; opposite edges of a unique
square are related. The transitive closure may still be finer than the
true product coloring, so candidate coarsenings are tried finest-first and
each is accepted only if exact product coordinates can be extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .aux_graph import StagGraph, build_stag
from .errors import Disconnected, TooLarge, ValidationFailed
from .graph_core import (
    Graph,
    _UnionFind,
    bfs,
    block_decomposition,
    cartesian_product,
    is_connected,
)
from .spanning_trees import DEFAULT_MAX_TREES

DEFAULT_MAX_N = 4096
_FULL_SEARCH_CLASSES = 8


@dataclass(eq=False)
class Factorization:
    """Prime factors plus per-vertex coordinates into the factors."""

    factors: tuple
    coordinates: dict  # input vertex -> tuple of factor vertices

    @property
    def is_prime(self):
        return len(self.factors) == 1


def _square_classes(g):
    """Edge classes of the triangle/square relation (finer than or equal
    to the product coloring)."""
    uf = _UnionFind(g.edge_ids())
    adjset = {v: set(g.adj(v)) for v in g.vertices}
    for u in g.vertices:
        if uf.count == 1:
            break
        inc = sorted(g.adj(u).items())  # (neighbor, eid)
        for i in range(len(inc)):
            v, e = inc[i]
            for j in range(i + 1, len(inc)):
                w, f = inc[j]
                if w in adjset[v]:
                    uf.union(e, f)
                    continue
                common = (adjset[v] & adjset[w]) - {u}
                if len(common) != 1:
                    uf.union(e, f)
                else:
                    x = next(iter(common))
                    uf.union(e, g.eid_between(w, x))
                    uf.union(f, g.eid_between(v, x))
    groups = {}
    for eid in g.edge_ids():
        groups.setdefault(uf.find(eid), []).append(eid)
    return [frozenset(grp) for _, grp in sorted(groups.items())]


def _components(g, eids):
    """Vertex -> component id (its first vertex) over the subgraph
    restricted to eids."""
    allowed = set(eids)
    comp = {}
    for s in g.vertices:
        if s not in comp:
            comp.update(dict.fromkeys(bfs(g, s, allowed), s))
    return comp


def _try_extract(g, color):
    """Extract factors + coordinates for an edge coloring, or None.

    A coloring is accepted only when every vertex gets a unique coordinate
    tuple and the edge set matches the rebuilt product exactly."""
    k = 1 + max(color.values())
    v0 = g.vertices[0]
    by_color = {i: [] for i in range(k)}
    for eid, c in color.items():
        by_color[c].append(eid)
    factors = []
    for i in range(k):
        comp = _components(g, by_color[i])
        layer = sorted(v for v in g.vertices if comp[v] == comp[v0])
        lset = set(layer)
        es = [e for e in g.edges if color[e.eid] == i and e.u in lset and e.v in lset]
        factors.append(Graph(layer, es, g.names))
    total = 1
    for f in factors:
        total *= f.n
    if total != g.n:
        return None
    coords = {v: [None] * k for v in g.vertices}
    for i in range(k):
        other_eids = [eid for eid, c in color.items() if c != i]
        comp = _components(g, other_eids)
        rep = {}
        for x in factors[i].vertices:
            if comp[x] in rep:
                return None
            rep[comp[x]] = x
        for v in g.vertices:
            if comp[v] not in rep:
                return None
            coords[v][i] = rep[comp[v]]
    coords = {v: tuple(c) for v, c in coords.items()}
    if len(set(coords.values())) != g.n:
        return None
    for e in g.edges:
        i = color[e.eid]
        cu, cv = coords[e.u], coords[e.v]
        for j in range(k):
            if j == i:
                if not factors[j].has_edge(cu[j], cv[j]):
                    return None
            elif cu[j] != cv[j]:
                return None
    expected_m = 0
    for i, f in enumerate(factors):
        expected_m += f.m * (total // f.n)
    if expected_m != g.m:
        return None
    return factors, coords


def _set_partitions(items):
    """All set partitions of items, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _candidate_colorings(classes):
    """Coarsenings of the square classes, finest first."""
    k = len(classes)
    if k <= _FULL_SEARCH_CLASSES:
        parts = sorted(_set_partitions(list(range(k))), key=lambda p: -len(p))
        for part in parts:
            yield part
    else:
        # greedy fallback: finest, then merge class pairs until trivial
        current = [[i] for i in range(k)]
        yield current
        while len(current) > 1:
            current = [current[0] + current[1]] + current[2:]
            yield current


def _canon_key(g):
    """Deterministic tie-break key for isomorphic-agnostic factor ordering."""
    relab, _ = g.relabeled()
    return (g.degree_sequence(), tuple(sorted((e.u, e.v) for e in relab.edges)))


def prime_factorize(g, max_n=DEFAULT_MAX_N):
    """Prime factorization under the Cartesian product.

    Factors are emitted in descending vertex count. The trivial coloring
    always validates, so a prime verdict is the guaranteed fallback."""
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds guard {max_n}")
    if not is_connected(g):
        raise Disconnected("factorization needs a connected graph")
    if g.n == 1:
        return Factorization((g,), {g.vertices[0]: (g.vertices[0],)})
    classes = _square_classes(g)
    for grouping in _candidate_colorings(classes):
        color = {}
        for b, group in enumerate(grouping):
            for ci in group:
                for eid in classes[ci]:
                    color[eid] = b
        got = _try_extract(g, color)
        if got is None:
            continue
        factors, coords = got
        order = sorted(range(len(factors)), key=lambda i: (-factors[i].n, _canon_key(factors[i])))
        factors = tuple(factors[i] for i in order)
        coords = {v: tuple(c[i] for i in order) for v, c in coords.items()}
        return Factorization(factors, coords)
    raise ValidationFailed("no coloring validated")  # unreachable: trivial coloring validates


def is_prime(g, max_n=DEFAULT_MAX_N):
    """True iff g has no nontrivial Cartesian factorization."""
    if not is_connected(g):
        raise Disconnected("primality needs a connected graph")
    if g.n == 1:
        return True  # identity, prime by convention
    classes = _square_classes(g)
    if len(classes) == 1:
        return True
    class_of = {}
    for i, cl in enumerate(classes):
        for eid in cl:
            class_of[eid] = i
    for v in g.vertices:
        if len({class_of[eid] for eid in g.incident_eids(v)}) == 1:
            return True  # all edges at one vertex share a factor
    return prime_factorize(g, max_n).is_prime


def product_of_block_stags(g, max_trees=DEFAULT_MAX_TREES):
    """Iterated Cartesian product of Aux(B) over the blocks B of g."""
    if not is_connected(g):
        raise Disconnected("block product needs a connected graph")
    blocks = block_decomposition(g).blocks
    if not blocks:
        return StagGraph(Graph([0], []), None, None)
    stags = [build_stag(b, max_trees).graph for b in blocks]
    return StagGraph(reduce(cartesian_product, stags), None, None)
