"""Spanning tree enumeration, counting, unit transformations and the
reverse-delete construction with a protected edge pair."""

from __future__ import annotations

from array import array

from .errors import (
    Disconnected,
    EdgeInTree,
    NotTwoConnected,
    NoWitness,
    TooManyTrees,
    ValidationFailed,
)
from .graph_core import (
    bfs,
    block_decomposition,
    bridges,
    fundamental_cycle_edges,
    is_connected,
    is_two_connected,
    tree_path_edges,
)

DEFAULT_MAX_TREES = 100_000


class SpanningTree:
    """Spanning tree of a host graph, canonically keyed by its sorted
    edge-id tuple."""

    __slots__ = ("key", "host", "_eset")

    def __init__(self, host, edge_ids):
        self.key = tuple(sorted(edge_ids))
        self.host = host
        self._eset = None

    @classmethod
    def of(cls, host, edge_ids):
        t = cls(host, edge_ids)
        if len(t.key) != host.n - 1:
            raise ValueError(f"expected {host.n - 1} edges, got {len(t.key)}")
        if len(t.edge_set) != len(t.key):
            raise ValueError("repeated edge id")
        if len(bfs(host, host.vertices[0], t.edge_set)) != host.n:
            raise ValueError("edge set does not span the host acyclically")
        return t

    @property
    def edge_set(self):
        if self._eset is None:
            self._eset = frozenset(self.key)
        return self._eset

    def __eq__(self, other):
        return isinstance(other, SpanningTree) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"SpanningTree{self.key}"


def count_spanning_trees(g):
    """Matrix-Tree count via fraction-free (Bareiss) integer elimination."""
    if not is_connected(g):
        raise Disconnected("spanning trees need a connected graph")
    size = g.n - 1
    if size == 0:
        return 1
    idx = {v: i for i, v in enumerate(g.vertices[:-1])}
    mat = [[0] * size for _ in range(size)]
    for v, i in idx.items():
        mat[i][i] = g.degree(v)
    for e in g.edges:
        if e.u in idx and e.v in idx:
            mat[idx[e.u]][idx[e.v]] -= 1
            mat[idx[e.v]][idx[e.u]] -= 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for j in range(k + 1, size):
                if mat[j][k] != 0:
                    mat[k], mat[j] = mat[j], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def dfs_spanning_tree(g):
    """One spanning tree (edge-id frozenset) by breadth-first search."""
    tree = bfs(g, g.vertices[0])
    if len(tree) != g.n:
        raise Disconnected("spanning trees need a connected graph")
    return frozenset(eid for _, eid in tree.values()) - {None}


def _type2_keys(g, tree_eids):
    res = set()
    tset = frozenset(tree_eids)
    for f in tset:
        base = tset - {f}
        comp = bfs(g, g.edge(f).u, base)
        for e in g.edges:
            if e.eid in tset:
                continue
            if (e.u in comp) != (e.v in comp):
                res.add(base | {e.eid})
    return res


def type2_neighbors(g, t):
    """Trees reachable by deleting a tree edge and relinking across the cut."""
    return {SpanningTree(g, k) for k in _type2_keys(g, t.edge_set)}


def type1_neighbors(g, t):
    """Trees reachable by adding a non-tree edge and deleting another edge
    of the created cycle."""
    res = set()
    tset = t.edge_set
    for e in g.edges:
        if e.eid in tset:
            continue
        cycle = fundamental_cycle_edges(g, tset, e.eid)
        for f in cycle:
            if f != e.eid:
                res.add(SpanningTree(g, (tset - {f}) | {e.eid}))
    return res


def fundamental_cycle(g, t, eid):
    """Ordered edge list of the unique cycle of t + e."""
    if eid in t.edge_set:
        raise EdgeInTree(f"edge {eid} is in the tree")
    return fundamental_cycle_edges(g, t.edge_set, eid)


def enumerate_spanning_trees(g, max_trees=DEFAULT_MAX_TREES):
    """All spanning trees, sorted by canonical key.

    One exchange walk from a breadth-first tree reaches every tree: the
    neighbours of T are T - f + e for each non-tree edge e and each tree
    edge f on the fundamental cycle of e. The Kirchhoff count is the size
    guard (TooManyTrees) and the completeness check (ValidationFailed).
    """
    keys, _, _ = _exchange_walk(g, max_trees)
    return [SpanningTree(g, k) for k in keys]


def _exchange_walk(g, max_trees):
    """Every spanning tree of g and every exchange between two of them.

    Returns (keys, pairs, count): the trees' sorted edge-id tuples in
    ascending order, an iterator over the index pairs (i, j), i < j, of
    trees that differ by one exchange, in ascending order, and the number
    of those pairs. During the walk a tree is a bitmask over edge
    positions. Each tree is rooted once; climbing the tree path between
    the ends of a non-tree edge e passes exactly the tree edges f of its
    fundamental cycle, and each gives the neighbour T - f + e. A pair is
    recorded from its lower discovery index only, so each appears once. A
    pair is held as i * N + j (N the tree count) in an int64 array, and
    ranked and sorted only when the iterator is read, so enumeration and
    counting alone keep 8 bytes per exchange.
    """
    expected = count_spanning_trees(g)
    if expected > max_trees:
        raise TooManyTrees(f"{expected} trees exceed guard {max_trees}")
    n = g.n
    vid = {v: k for k, v in enumerate(g.vertices)}
    ends = [(vid[e.u], vid[e.v]) for e in g.edges]
    bits = [1 << p for p in range(g.m)]
    first = dfs_spanning_tree(g)
    start = sum(bits[p] for p, e in enumerate(g.edges) if e.eid in first)
    index = {start: 0}
    masks = [start]
    codes = array("q")
    i = 0
    while i < len(masks):
        cur = masks[i]
        adj = [[] for _ in range(n)]
        chords = []
        for p, (u, v) in enumerate(ends):
            if cur & bits[p]:
                adj[u].append((v, p))
                adj[v].append((u, p))
            else:
                chords.append(p)
        depth = [-1] * n
        up = [0] * n
        up_edge = [0] * n
        depth[0] = 0
        stack = [0]
        while stack:
            x = stack.pop()
            for y, p in adj[x]:
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    up[y] = x
                    up_edge[y] = p
                    stack.append(y)
        for p in chords:
            base = cur | bits[p]
            x, y = ends[p]
            while x != y:
                if depth[x] < depth[y]:
                    x, y = y, x
                nxt = base ^ bits[up_edge[x]]
                j = index.get(nxt)
                if j is None:
                    j = index[nxt] = len(masks)
                    masks.append(nxt)
                if i < j:
                    codes.append(i * expected + j)
                x = up[x]
        i += 1
    if len(masks) != expected:
        raise ValidationFailed(f"exchange walk found {len(masks)} of {expected} trees")
    eids = [e.eid for e in g.edges]
    keys = [tuple(sorted(eids[p] for p in range(g.m) if mask & bits[p])) for mask in masks]
    order = sorted(range(expected), key=keys.__getitem__)
    rank = [0] * expected
    for r, old in enumerate(order):
        rank[old] = r

    def ranked_pairs():
        ranked = []
        for c in codes:
            a, b = rank[c // expected], rank[c % expected]
            ranked.append(a * expected + b if a < b else b * expected + a)
        ranked.sort()
        for c in ranked:
            yield divmod(c, expected)

    return [keys[k] for k in order], ranked_pairs(), len(codes)


def serialize_trees(trees):
    return "".join(f"t: {','.join(map(str, t.key))}\n" for t in trees)


def witness_edge_for_pair(g, t, e1, e2):
    """Non-tree edge whose fundamental cycle contains both tree edges.

    Not every tree admits one for a given pair (a diamond with the tree
    {01, 02, 23} separates 01 from 23), but trees built by
    reverse_delete_tree with the pair protected always do."""
    if not is_two_connected(g) or g.n == 2:
        raise NotTwoConnected("witness requires a 2-connected host != K2")
    if e1 == e2 or e1 not in t.edge_set or e2 not in t.edge_set:
        raise ValueError("e1, e2 must be two distinct tree edges")
    for e in g.edges:
        if e.eid in t.edge_set:
            continue
        cyc = set(fundamental_cycle_edges(g, t.edge_set, e.eid))
        if e1 in cyc and e2 in cyc:
            return e.eid
    raise NoWitness(f"no witness for pair ({e1}, {e2}) on this tree")


def _edges_share_cycle(g, eids, e1, e2):
    """True if e1, e2 lie on a common cycle of the subgraph on eids."""
    sub = g.subgraph_edges(eids, vertices=g.vertices)
    for b in block_decomposition(sub).blocks:
        beids = {e.eid for e in b.edges}
        if e1 in beids and e2 in beids:
            return b.m > 1
    return False


def reverse_delete_tree(g, protected_pair=None):
    """Spanning tree by repeated deletion of cycle edges (reverse Kruskal).

    Edges are scanned in ascending id order. With protected_pair=(e1, e2)
    on a 2-connected host, deletions that would destroy every surviving
    cycle through both edges are deferred, so the last deleted edge lies
    on a surviving cycle containing e1 and e2.

    Returns (tree, trace); each trace entry is (deleted edge id, edge ids
    of a cycle of the surviving graph through it at deletion time).
    """
    if not is_connected(g):
        raise Disconnected("reverse delete needs a connected graph")
    if protected_pair is not None:
        e1, e2 = protected_pair
        if e1 == e2:
            raise ValueError("protected edges must be distinct")
        if not is_two_connected(g) or g.n == 2:
            raise NotTwoConnected("protected pair requires a 2-connected host != K2")
    surviving = set(g.edge_ids())
    trace = []
    target = g.n - 1
    while len(surviving) > target:
        pick = None
        nonbridge = surviving - set(bridges(g.subgraph_edges(surviving, vertices=g.vertices)))
        for d in sorted(nonbridge):
            if protected_pair is None:
                pick = d
                break
            if d in (e1, e2):
                continue
            rest = surviving - {d}
            if len(rest) == target or _edges_share_cycle(g, rest, e1, e2):
                pick = d
                break
        if pick is None:
            raise NoWitness("no deletable edge preserves the protected cycle")
        e = g.edge(pick)
        surviving.discard(pick)
        trace.append((pick, (pick, *tree_path_edges(g, surviving, e.u, e.v))))
    return SpanningTree.of(g, surviving), trace
