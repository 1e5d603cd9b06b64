"""Cartesian-product prime factorization.

The prime factors are the classes of the product relation
sigma = (Theta | tau)*: Theta is the Djokovic-Winkler relation, tau relates
incident edges on no common chordless square (Feder 1992; Imrich & Klavzar
2000). No search is needed:

1. Square classes relate incident edges that span a triangle, no square
   or more than one, and opposite edges of a unique square. They contain
   tau and lie inside sigma.
2. Extraction rebuilds the product from an edge colouring and checks it
   edge by edge. A product colouring no coarser than sigma is sigma, so if
   the square classes extract, they are the answer.
3. Only otherwise the Theta closure joins each edge xy of one BFS tree to
   every edge uv with d(x,u) + d(y,v) != d(x,v) + d(y,u), which with tau
   closes to sigma (Feder), and extraction runs again as the certificate.
   If it fails, ValidationFailed names the failed check.
"""

from collections import namedtuple
from itertools import combinations, islice
from math import prod

from .errors import Disconnected, TooLarge, ValidationFailed
from .graph_core import Graph, _components, _UnionFind, bfs, is_connected

DEFAULT_MAX_N = 4096


class Factorization(namedtuple("Factorization", "factors coordinates")):
    """Prime factors plus per-vertex coordinates into the factors:
    coordinates maps each input vertex to its tuple of factor vertices."""

    __slots__ = ()

    @property
    def is_prime(self):
        return len(self.factors) == 1


def _square_classes(g):
    """Edge classes of the triangle/square relation (finer than or equal
    to the product coloring). Once one class is left every later union
    falls inside it, so the scan stops, within a vertex's pairs too."""
    uf = _UnionFind(g.edge_ids())
    adjset = {v: set(g.adj(v)) for v in g.vertices}
    for u in g.vertices:
        inc = sorted(g.adj(u).items())  # (neighbor, eid)
        for (v, e), (w, f) in combinations(inc, 2):
            if uf.count == 1:
                return [frozenset(g.edge_ids())]
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


def _distances(g, s):
    """Distance from s to every vertex, read off the BFS tree."""
    d = {}
    for v, (p, _) in bfs(g, s).items():
        d[v] = 0 if p is None else d[p] + 1
    return d


def _colourings(g, classes):
    """The candidate colourings {eid: group} of g: the square classes
    first, then the groups after each edge xy of the BFS tree from
    g.vertices[0] whose Theta merges join two groups. The groups are
    numbered by their largest class, the order in which a finest-first
    search over set partitions lists them: before any merge, class i is
    colour i. The groups never get coarser than sigma, as Theta and the
    square classes lie inside it, and a product colouring no coarser than
    sigma is sigma. So the first colouring that extracts is the answer,
    and the caller stops there; one group always extracts."""
    uf = _UnionFind(range(len(classes)))
    cls = {eid: i for i, c in enumerate(classes) for eid in c}

    def colouring():
        last = {uf.find(c): c for c in range(len(classes))}
        rank = {r: b for b, r in enumerate(sorted(last, key=last.get))}
        return {eid: rank[uf.find(c)] for eid, c in cls.items()}

    yield colouring()
    # BFS order lists a vertex's children together: one BFS per parent
    px = None
    for y, (x, eid) in islice(bfs(g, g.vertices[0]).items(), 1, None):
        if x != px:
            px, dx = x, _distances(g, x)
        # xy Theta uv iff d(x,u) - d(y,u) != d(x,v) - d(y,v)
        delta = {v: dx[v] - d for v, d in _distances(g, y).items()}
        before, a = uf.count, cls[eid]
        for f, u, v in g.edges:
            if delta[u] != delta[v]:
                uf.union(a, cls[f])
        if uf.count < before:
            yield colouring()


def _try_extract(g, color):
    """Factors and coordinates for an edge colouring {eid: 0..k-1} ({} for K1).

    The colouring is accepted only when every vertex gets a unique
    coordinate tuple and the edge set matches the rebuilt product exactly;
    otherwise ValidationFailed names the check that failed. An edge of
    colour i is checked only along factor i: coordinate j != i is read off
    the components over the edges not of colour j, which hold the edge."""
    k = 1 + max(color.values(), default=0)
    factors = []
    for i in range(k):
        layer = bfs(g, g.vertices[0], {eid for eid, c in color.items() if c == i})
        es = [e for e in g.edges if color[e.eid] == i and e.u in layer and e.v in layer]
        factors.append(Graph(layer, es, g._names))
    total = prod(f.n for f in factors)
    if total != g.n:
        raise ValidationFailed(f"the factors span {total} vertices, the graph {g.n}")
    coords = {v: [None] * k for v in g.vertices}
    for i in range(k):
        comp = _components(g, [eid for eid, c in color.items() if c != i])
        rep = {comp[x]: x for x in factors[i].vertices}
        if len(rep) != factors[i].n:
            raise ValidationFailed(f"a layer of the other factors meets factor {i} twice")
        for v in g.vertices:
            if comp[v] not in rep:
                raise ValidationFailed(f"a layer of the other factors misses factor {i}")
            coords[v][i] = rep[comp[v]]
    coords = {v: tuple(c) for v, c in coords.items()}
    if len(set(coords.values())) != g.n:
        raise ValidationFailed("two vertices get the same coordinates")
    for e in g.edges:
        i = color[e.eid]
        if not factors[i].has_edge(coords[e.u][i], coords[e.v][i]):
            raise ValidationFailed(f"edge {e.eid} is not a step along factor {i}")
    expected_m = sum(f.m * (total // f.n) for f in factors)
    if expected_m != g.m:
        raise ValidationFailed(f"the product has {expected_m} edges, the graph {g.m}")
    return factors, coords


def _canon_key(g):
    """Deterministic tie-break key for isomorphic-agnostic factor ordering:
    the degree sequence, then the sorted edges with each vertex replaced by
    its index in the vertex order."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    return (g.degree_sequence(), tuple(sorted((idx[u], idx[v]) for u, v in g.edge_pairs())))


def prime_factorize(g, max_n=DEFAULT_MAX_N):
    """Prime factorization under the Cartesian product: the first of the
    _colourings that extracts, else the last one's ValidationFailed. Factors
    are emitted in descending vertex count, ties broken by _canon_key and
    then by the colour order."""
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds guard {max_n}")
    if not is_connected(g):
        raise Disconnected("factorization needs a connected graph")
    for colour in _colourings(g, _square_classes(g)):
        try:
            factors, coords = _try_extract(g, colour)
            break
        except ValidationFailed as exc:
            failure = exc
    else:
        raise failure
    order = sorted(range(len(factors)), key=lambda i: (-factors[i].n, _canon_key(factors[i])))
    factors = tuple(factors[i] for i in order)
    coords = {v: tuple(c[i] for i in order) for v, c in coords.items()}
    return Factorization(factors, coords)


def is_prime(g, max_n=DEFAULT_MAX_N):
    """True iff g has no nontrivial Cartesian factorization (K1 is prime
    by convention)."""
    return prime_factorize(g, max_n).is_prime
