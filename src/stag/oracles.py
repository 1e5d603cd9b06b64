"""Brute-force references that the benchmark's answer checks run; the
tests' other references are in tests/oracles.py."""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .aux_graph import StagGraph
from .errors import TooLarge
from .graph_core import Graph, _UnionFind
from .spanning_trees import SpanningTree

_MAX_M = 24  # brute_force_trees filters C(m, n - 1) edge subsets


def brute_force_trees(g):
    """All spanning trees by filtering every (n-1)-subset of the edges."""
    if g.m > _MAX_M:
        raise TooLarge(f"m={g.m} exceeds guard {_MAX_M}")
    n = g.n
    out = []
    for combo in combinations(g.edge_ids(), n - 1):
        if _is_spanning_tree(g, combo):
            out.append(SpanningTree(g, combo))
    out.sort()
    return out


def _is_spanning_tree(g, eids):
    uf = _UnionFind(g.vertices)
    return len(eids) == g.n - 1 and all(uf.union(e.u, e.v) for e in map(g.edge, eids))


def brute_force_stag(g, max_trees=2000):
    """Aux(g) over all brute-force trees. Two trees differ by one exchange
    exactly when they share n - 2 edges, their intersection, so the pairs
    are those within the groups of trees that contain one (n - 2)-edge
    subset, each pair in one group, sorted."""
    trees = brute_force_trees(g)
    if len(trees) > max_trees:
        raise TooLarge(f"{len(trees)} trees exceed guard {max_trees}")
    groups = defaultdict(list)
    for i, t in enumerate(trees):
        for k in range(len(t.key)):
            groups[t.key[:k] + t.key[k + 1 :]].append(i)
    pairs = sorted(pair for group in groups.values() for pair in combinations(group, 2))
    graph = Graph(range(max(1, len(trees))), ((k, u, v) for k, (u, v) in enumerate(pairs)))
    return StagGraph(graph, tuple(trees), g)


def _nx_graph(g):
    import networkx as nx

    out = nx.empty_graph(g.vertices)
    out.add_edges_from(e.endpoints() for e in g.edges)
    return out


def _matrix_tree_count(g):
    """The number of spanning trees of g by Kirchhoff's Matrix-Tree
    theorem: the determinant of the Laplacian less its last row and
    column, by dense Gaussian elimination over Fractions. That minor is
    positive semidefinite, and so is each Schur complement of it, so the
    elimination needs no row swaps and a zero pivot means determinant 0."""
    index = {v: i for i, v in enumerate(g.vertices)}
    size = g.n - 1
    a = [[Fraction(0)] * size for _ in range(size)]
    for e in g.edges:
        u, v = index[e.u], index[e.v]
        for x, y in ((u, v), (v, u)):
            if x < size:
                a[x][x] += 1
                if y < size:
                    a[x][y] -= 1
    det = Fraction(1)
    for k in range(size):
        pivot = a[k][k]
        if not pivot:
            return 0
        det *= pivot
        for r in range(k + 1, size):
            ratio = a[r][k] / pivot
            for c in range(k, size):
                a[r][c] -= ratio * a[k][c]
    return int(det)


@lru_cache(maxsize=None)
def _atlas_preimages():
    """(tree count, graph) for each connected bridgeless atlas graph on 3
    to 7 vertices, the trees counted once per process by
    _matrix_tree_count, exact and independent of spanning_trees."""
    import networkx as nx

    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if n < 3 or not nx.is_connected(nxg) or nx.has_bridges(nxg):
            continue  # a bridge is a K2 block: not a minimal preimage
        g = Graph(range(n), ((i, u, v) for i, (u, v) in enumerate(sorted(map(sorted, nxg.edges())))))
        out.append((_matrix_tree_count(g), g))
    return tuple(out)


@lru_cache(maxsize=None)
def _atlas_auxes(target):
    """(graph, Aux as a networkx graph, its sorted per-vertex triangle
    counts) for each atlas candidate with `target` trees, built by
    brute_force_stag once per process and tree count: they are the same
    on every call of brute_force_is_stag with an h of `target` vertices."""
    import networkx as nx

    out = []
    for count, g in _atlas_preimages():
        if count == target:
            aux = _nx_graph(brute_force_stag(g, max_trees=target).graph)
            out.append((g, aux, sorted(nx.triangles(aux).values())))
    return tuple(out)


def brute_force_is_stag(h):
    """Search all connected minimal-preimage graphs (no K2 block) on up to
    7 vertices for one whose Aux is isomorphic to h; None if absent.

    Independent of the fast paths: the networkx graph atlas (all graphs on
    <= 7 vertices) supplies the candidates and the bridge test, trees are
    counted by a dense Matrix-Tree determinant over Fractions, the Aux of
    each candidate with h.n trees is built by brute force (_atlas_auxes),
    and networkx tests isomorphism.
    A candidate whose Aux has other per-vertex triangle counts than h
    (nx.triangles, sorted) cannot be isomorphic to h, so it is refuted
    before the isomorphism search."""
    target = h.n
    if target == 1:
        return Graph([0], []) if h.m == 0 else None
    import networkx as nx

    hx = _nx_graph(h)
    triangles = sorted(nx.triangles(hx).values())
    for g, aux, aux_triangles in _atlas_auxes(target):
        if aux_triangles == triangles and nx.is_isomorphic(aux, hx):
            return g
    return None

