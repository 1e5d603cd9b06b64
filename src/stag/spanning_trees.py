"""Spanning tree enumeration, counting, unit transformations and the
reverse-delete construction with a protected edge pair."""

from __future__ import annotations

from decimal import Decimal
from heapq import heapify, heappop, heappush
from itertools import chain, repeat

from .errors import (
    Disconnected,
    EdgeInTree,
    NotTwoConnected,
    NoWitness,
    TooManyTrees,
    ValidationFailed,
)
from .graph_core import (
    _blocks,
    _UnionFind,
    bfs,
    fundamental_cycle_edges,
    is_connected,
    is_two_connected,
)

DEFAULT_MAX_TREES = 100_000


class SpanningTree:
    """Spanning tree of a host graph, canonically keyed by its sorted
    edge-id tuple."""

    __slots__ = ("key", "host", "_eset")

    def __init__(self, host, edge_ids):
        self.key, self.host, self._eset = tuple(sorted(edge_ids)), host, None

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
    """Matrix-Tree count: the product over the blocks of g (_blocks) of
    each block's reduced Laplacian determinant, as the spanning trees of g
    are the products of spanning trees of its blocks. A bridge block has
    one tree and is skipped. Each other block grounds a vertex of highest
    degree and is eliminated in minimum-degree order up to the point where
    the rest is a clique (_elimination_order): fraction-free on sparse dict
    rows, then on plain list rows for that clique (_block_count). Every
    division is exact, as each leading principal minor of a connected
    graph's reduced Laplacian is positive in any symmetric order. Raises
    Disconnected if g is not connected."""
    count = 1
    for block in _blocks(g, "spanning trees need")[0]:
        if len(block) > 1:
            count *= _block_count(block)
    return count


def _block_count(edges):
    """The reduced Laplacian determinant of the 2-connected graph on edges,
    by a sparse symmetric fraction-free (Bareiss 1968) elimination in the
    order _elimination_order gives.

    For a connected graph the reduced Laplacian is positive definite under
    any symmetric permutation, so every pivot p_k, a leading principal
    minor, is positive and every division below is exact: there is no pivot
    search, no row swap and no sign.

    After k steps, entry (i, j) with i, j >= k is the minor on rows
    0..k-1, i and columns 0..k-1, j: an integer, symmetric in i and j. So
    row i keeps only its columns j >= i, as a dict of nonzero entries, and
    reads a_ik from the pivot row k. Step k sends a_ij to
    (a_ij p_k - a_ik a_kj) / p_(k-1). Where a_ik = 0 that is a scaling by
    p_k / p_(k-1), and successive scalings telescope: a row that holds its
    entries after t steps is brought to k steps by p_(k-1) / p_(t-1), with
    p_(-1) = 1. So each row records its step count and is touched only when
    it becomes the pivot or its pivot-column entry is nonzero. Eliminating
    part of a Laplacian leaves a Laplacian (off-diagonal entries <= 0, the
    two terms above never cancel), so the rows updated at step k are
    exactly the columns of the pivot row, and the nonzero entries are the
    symbolic fill. The tail that the order ends with is a clique of that
    fill, a dense matrix: its rows are caught up once and become plain
    lists over their columns j >= i, each step one comprehension per row.
    """
    nbrs = {}
    for _, u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    deg = {v: len(ws) for v, ws in nbrs.items()}
    order, tail = _elimination_order(nbrs)
    seq = order + tail
    size = len(seq)
    pos = dict(zip(seq, range(size)))
    rows = [{i: deg[v]} for i, v in enumerate(seq)]
    for _, u, v in edges:
        i, j = pos.get(u, size), pos.get(v, size)
        if i > j:
            i, j = j, i
        if j < size:
            rows[i][j] = -1
    # scale[t] = p_(t-1), scale[0] = 1; seen[i] = steps applied to row i
    scale = [1]
    seen = [0] * size
    for k in range(len(order)):
        prev = scale[k]
        pivot = _catch_up(rows[k], prev, scale[seen[k]])
        rows[k] = None
        p = pivot.pop(k)
        scale.append(p)
        below = sorted(pivot.items())
        for r, (i, a) in enumerate(below):
            row = _catch_up(rows[i], prev, scale[seen[i]])
            new = {j: (row.pop(j, 0) * p - a * b) // prev for j, b in below[r:]}
            for j, x in row.items():
                new[j] = x * p // prev
            rows[i] = new
            seen[i] = k + 1
    prev = scale[-1]
    dense = []
    for i in range(len(order), size):
        row = _catch_up(rows[i], prev, scale[seen[i]])
        dense.append([row.get(j, 0) for j in range(i, size)])
    for k, pivot in enumerate(dense):
        p = pivot[0]
        for i in range(k + 1, len(dense)):
            a = pivot[i - k]
            dense[i] = [(x * p - a * b) // prev for x, b in zip(dense[i], pivot[i - k:])]
        prev = p
    return p


def _elimination_order(nbrs):
    """A minimum-degree elimination order (George and Liu 1989) of the
    graph nbrs, {vertex: set of neighbours}, as (order, tail), with the
    ground left out: a vertex of highest degree. One symbolic elimination,
    in place on nbrs, takes the remaining vertex with the fewest remaining
    neighbours, ties by vertex id, from a heap whose stale entries are
    skipped, and makes its neighbours a clique. It stops at the first
    pivot that is adjacent to every remaining vertex: every other has at
    least as many neighbours, so the rest, the tail, is a clique and any
    order of it fills nothing more."""
    ground = max(nbrs, key=lambda v: len(nbrs[v]))
    for w in nbrs.pop(ground):
        nbrs[w].discard(ground)
    heap = [(len(ws), v) for v, ws in nbrs.items()]
    heapify(heap)
    order = []
    while True:
        d, v = heappop(heap)
        ws = nbrs.get(v)
        if ws is None or len(ws) != d:
            continue
        if d == len(nbrs) - 1:
            return order, list(nbrs)
        del nbrs[v]
        order.append(v)
        for w in ws:
            fill = nbrs[w]
            fill.discard(v)
            fill |= ws
            fill.discard(w)
            heappush(heap, (len(fill), w))


def _decimal(count):
    """The decimal text of a count. str() refuses an int of more than 4,300
    digits, a limit that only a process-wide setting raises; a Decimal made
    from the int is exact and prints all of its digits."""
    return str(Decimal(count))


def _catch_up(row, s, t):
    """row * s / t, exact: the telescoped scalings of the skipped steps."""
    return row if s == t else {j: x * s // t for j, x in row.items()}


def _cut_groups(g, tset):
    """For each tree edge f of the tree with edge-id set tset, the keys of
    T - f + e over the edges e of f's fundamental cut, f included (which
    gives T): the two sides of T - f by one BFS."""
    for f in tset:
        base = tset - {f}
        side = bfs(g, g.edge(f).u, base)
        yield [tuple(sorted(base | {e.eid})) for e in g.edges if (e.u in side) != (e.v in side)]


def _cycle_groups(g, tset):
    """For each chord e of the tree with edge-id set tset, the keys of
    T - f + e over the edges f of e's fundamental cycle, e included (which
    gives T)."""
    for e in g.edges:
        if e.eid not in tset:
            grown = tset | {e.eid}
            yield [tuple(sorted(grown - {f})) for f in fundamental_cycle_edges(g, tset, e.eid)]


def type2_neighbors(g, t):
    """Trees reachable by deleting a tree edge and relinking the two sides of the cut."""
    keys = chain.from_iterable(_cut_groups(g, t.edge_set))
    return {SpanningTree(g, k) for k in keys if k != t.key}


def type1_neighbors(g, t):
    """Trees reachable by adding a non-tree edge and deleting another edge
    of the created cycle."""
    keys = chain.from_iterable(_cycle_groups(g, t.edge_set))
    return {SpanningTree(g, k) for k in keys if k != t.key}


def fundamental_cycle(g, t, eid):
    """Ordered edge list of the unique cycle of t + e."""
    if eid in t.edge_set:
        raise EdgeInTree(f"edge {eid} is in the tree")
    return fundamental_cycle_edges(g, t.edge_set, eid)


def enumerate_spanning_trees(g, max_trees=DEFAULT_MAX_TREES):
    """All spanning trees, sorted by canonical key, from the exchange walk
    (_walk), as a _Trees: the SpanningTree objects are decoded on the
    first read, and serialize_trees writes them from the masks. The
    Kirchhoff count is the size guard (TooManyTrees) and the completeness
    check (ValidationFailed)."""
    masks, _, edges = _walk(g, max_trees)
    return _Trees(g, masks, edges)


def _walk(g, max_trees):
    """The exchange walk on masks: (masks, pairs, edges), the trees in
    ascending key order (_keys decodes them), the index pairs (i, j), i < j,
    of trees one exchange apart in ascending order (a _Rows), and g's edges
    sorted by id.

    Bit order: a tree is a bitmask in which the edge at position p of the
    edges sorted by id is bit m - 1 - p, so a greater key is a smaller
    mask. param_report reads the masks too, but only ORs and ANDs them.

    The walk starts from the greatest tree, Kruskal's over the positions
    in descending order, and pops masks from a min-heap, so trees come out
    in descending key order. By induction: a tree T that is not the greatest
    has an exchange T - f + e with a greater key, as a matroid basis is
    lexicographically greatest iff no single exchange makes it greater
    (Gale 1968); that tree was popped before T and pushed it. From each
    tree the walk follows only the exchanges to smaller keys, T - f + e
    with pos(e) < pos(f), so each exchange is recorded once, at its
    greater end. The k-th tree popped takes rank N - 1 - k (N trees) and
    appends it to the row of each smaller neighbour. When a tree is popped
    every greater neighbour has been, so its row holds their ranks, each
    once, in descending order. After the loop the list and each row are
    reversed once, in place, so row r holds rank r's greater neighbours in
    ascending order, and the rows read in order are the pairs in order.

    A pending tree's one entry in pending is [packed, rank, ...]: its
    fundamental cycles C_e, chord bit included, as one packed int (_pack),
    then its row so far; popping the tree takes the int off the front. The
    f of its exchanges T - f + e are the tree bits of C_e, and those with
    pos(e) < pos(f) the bits of C_e below e. The start tree's cycles come
    from _fundamental_cycles; a tree found for the first time gets its own
    by one _pivot of the slot and the C_e that the loop holds.
    """
    expected = count_spanning_trees(g)
    if expected > max_trees:
        raise TooManyTrees(f"{_decimal(expected)} trees exceed guard {max_trees}")
    m = g.m
    edges = sorted(g.edges)
    start = _greedy_tree(g, edges, reversed(range(m)))
    cycles = _fundamental_cycles(g, edges, start)
    full, ones = (1 << m) - 1, _pack([1] * len(cycles), m)
    slots = [s * m for s in range(len(cycles))]
    pending = {start: [_pack(cycles, m)]}
    heap = [start]
    masks = []
    rows = []
    rank = expected
    while heap:
        cur = heappop(heap)
        rank -= 1
        masks.append(cur)
        rows.append(row := pending.pop(cur))
        packed = row.pop(0)
        for s in slots:
            ce = packed >> s & full
            e = ce & ~cur
            below = ce & (e - 1)
            base = cur | e
            while below:
                f = below & -below
                below ^= f
                nxt = base ^ f
                row = pending.get(nxt)
                if row is None:
                    pending[nxt] = [_pivot(packed, s, ce, f, ones), rank]
                    heappush(heap, nxt)
                else:
                    row.append(rank)
    if len(masks) != expected:
        raise ValidationFailed(f"exchange walk found {len(masks)} of {expected} trees")
    masks.reverse()
    rows.reverse()
    for row in rows:
        row.reverse()
    return masks, _Rows(rows), edges


def _bits(edges):
    """The walk's {eid: bit} of the edges sorted by id: position p is bit m - 1 - p."""
    m = len(edges)
    return {e.eid: 1 << (m - 1 - p) for p, e in enumerate(edges)}


def _greedy_tree(g, edges, order):
    """Kruskal's greedy tree: the mask, in _walk's bit order, of the edges
    at the positions in order (into edges, sorted by id) that join two
    components when taken in that order."""
    bit = _bits(edges)
    uf = _UnionFind(g.vertices)
    return sum(bit[edges[p].eid] for p in order if uf.union(edges[p].u, edges[p].v))


def _fundamental_cycles(g, edges, tree):
    """The fundamental cycles of the spanning tree `tree` of g, a mask in
    the walk's bit order, as masks with the chord bit, one per non-tree
    edge in ascending id order: C_e = e | (r(u) ^ r(v)), with r(x) the mask
    of the tree path from g.vertices[0] to x, read off one BFS of the
    tree; edges are g's edges sorted by id. None when the mask is not a
    spanning tree of g."""
    bit = _bits(edges)
    span = bfs(g, g.vertices[0], {eid for eid, b in bit.items() if tree & b})
    if len(span) != g.n or tree.bit_count() != g.n - 1:
        return None
    root = {}
    for v, (up, eid) in span.items():
        root[v] = 0 if up is None else root[up] | bit[eid]
    return [b | (root[e.u] ^ root[e.v]) for e, b in zip(edges, bit.values()) if not tree & b]


def _pack(cycles, m):
    """The cycles, masks of m bits, as one int: slot s, the m bits from
    bit s * m, holds cycle s (the cycle of a tree's s-th chord)."""
    return sum(cycle << s * m for s, cycle in enumerate(cycles))


def _pivot(packed, slot, ce, f, ones):
    """The packed cycles of the tree T - f + e from those of T: ce is C_e,
    the cycle of the chord e, at bit slot of packed, and f, a one-bit mask,
    a tree edge of T on C_e; ones is _pack([1] * c, m). The walk holds slot
    and C_e as it draws f from C_e, and _certify looks them up.

    Chord f gets C_e, and each other chord c keeps C_c if f is not in C_c,
    else gets C_c ^ C_e. Both are exact: C_e is a cycle of T' = T - f + e
    whose one non-tree edge is f; if f is not in C_c, C_c lies in T' + c;
    otherwise C_c ^ C_e is a nonzero sum in the cycle space whose edges
    are c, e and edges of T other than f (f cancels), all in T' + c, and
    the only nonzero element of the cycle space of T' + c is its one
    cycle. The same holds for the fundamental circuits of any binary
    matroid, its cycle space the GF(2) row space of the circuits.

    With pos(f) the bit index of f, (P >> pos(f)) & ones marks the slots
    whose cycle holds f; times C_e it holds C_e in each of those slots,
    with no carry between slots, and the XOR pivots them. f is on C_e, so
    e's slot is among them and becomes 0; the OR then writes C_e there,
    the cycle of the new chord f. The number of exchanges of the tree is
    the popcount less the number of chords."""
    return packed ^ ((packed >> (f.bit_length() - 1)) & ones) * ce | ce << slot


_CHUNK = 7


def _decode(masks, heads, empty):
    """The sorted edge ids of each mask, heads[p] the element of bit
    m - 1 - p and empty the element of no bit: (eid,) and () give key
    tuples, f"{eid}," and "" give their JSON text, each id followed by a
    comma. The mask is read in chunks of up to _CHUNK bits, the highest
    first, and each chunk looked up in a table of its 2^w elements: the
    table doubles once per bit, from its lowest, each new entry the bit's
    head (a smaller position than the bits before it) followed by an old
    entry."""
    m = len(heads)
    if not m:
        return [empty] * len(masks)
    low = (1 << _CHUNK) - 1
    keys = None
    for shift in reversed(range(0, m, _CHUNK)):
        table = [empty]
        for p in range(m - 1 - shift, max(m - 1 - shift - _CHUNK, -1), -1):
            head = heads[p]
            table += [head + t for t in table]
        if keys is None:
            keys = [table[mask >> shift] for mask in masks]
        else:
            keys = [k + table[mask >> shift & low] for k, mask in zip(keys, masks)]
    return keys


def _keys(masks, edges):
    """Each mask's sorted edge-id tuple, edges sorted by id as _walk gives them."""
    return _decode(masks, [(e.eid,) for e in edges], ())


class _Trees:
    """The walk's trees as a sized, re-iterable sequence of SpanningTree,
    held as (host, masks, edges), what _walk returns besides the pairs.
    The first index or iteration decodes every mask once and keeps the
    trees; _labels decodes the masks straight to text and makes no tree."""

    __slots__ = ("host", "masks", "edges", "_trees")

    def __init__(self, host, masks, edges):
        self.host, self.masks, self.edges, self._trees = host, masks, edges, None

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())

    def _decoded(self):
        if self._trees is None:
            self._trees = tuple([SpanningTree(self.host, k) for k in _keys(self.masks, self.edges)])
        return self._trees


class _Rows:
    """The walk's exchanges as a sized, re-iterable source of pairs (u, v):
    rows[u] lists, in ascending order, the ranks v of the greater neighbours
    of the tree of rank u, so read in order they are the pairs in ascending
    order. The rows share one int per tree."""

    __slots__ = ("rows", "count")

    def __init__(self, rows):
        self.rows, self.count = rows, sum(map(len, rows))

    def __len__(self):
        return self.count

    def __iter__(self):
        rows = self.rows
        return chain.from_iterable(map(zip, map(repeat, range(len(rows))), rows))


def _labels(trees):
    """Each tree's edge ids joined by commas, as serialize_trees writes
    them; a _Trees's by the text decode of its masks, each id followed by
    a comma and the last comma cut."""
    if isinstance(trees, _Trees):
        return [k[:-1] for k in _decode(trees.masks, [f"{e.eid}," for e in trees.edges], "")]
    return [",".join(map(str, t.key)) for t in trees]


def serialize_trees(trees):
    return "".join([f"t: {k}\n" for k in _labels(trees)])


def witness_edge_for_pair(g, t, e1, e2):
    """Non-tree edge whose fundamental cycle contains both tree edges.

    Not every tree admits one for a given pair (a diamond with the tree
    {01, 02, 23} separates 01 from 23), but the tree reverse_delete_tree
    builds with the pair protected always does: the chord it deletes last
    closes the cycle through both edges that it keeps in the tree. The
    witness is the least such chord, read off one _fundamental_cycles BFS."""
    if not is_two_connected(g) or g.n == 2:
        raise NotTwoConnected("witness requires a 2-connected host != K2")
    if e1 == e2 or e1 not in t.edge_set or e2 not in t.edge_set:
        raise ValueError("e1, e2 must be two distinct tree edges")
    edges = sorted(g.edges)
    bit = _bits(edges)
    chords = [e.eid for e in edges if e.eid not in t.edge_set]
    pair = bit[e1] | bit[e2]
    for eid, cycle in zip(chords, _fundamental_cycles(g, edges, sum(bit[e] for e in t.edge_set))):
        if cycle & pair == pair:
            return eid
    raise NoWitness(f"no witness for pair ({e1}, {e2}) on this tree")


def reverse_delete_tree(g, protected_pair=None):
    """Spanning tree by repeated deletion of cycle edges (reverse Kruskal),
    built directly: the tree is a greedy tree and its chords are the
    deleted edges.

    Without a pair the edges are deleted in ascending id order, which
    leaves Kruskal's tree over descending ids, _walk's start tree. With
    protected_pair=(e1, e2) on a 2-connected host, _menger_cycle gives a
    cycle C through both edges and w is C's greatest edge other than e1
    and e2: the greedy order takes C - w first and leaves w out, and the
    chords are deleted in ascending id order with w last, so the last
    deleted edge closes C.

    Returns (tree, trace); each trace entry is (deleted edge id, the sorted
    edge ids of its fundamental cycle in the tree). The tree survives every
    deletion, so that cycle is a cycle of the surviving graph at its step.
    """
    if not is_connected(g):
        raise Disconnected("reverse delete needs a connected graph")
    edges = sorted(g.edges)
    order = reversed(range(g.m))
    w = None
    if protected_pair is not None:
        e1, e2 = protected_pair
        if e1 == e2:
            raise ValueError("protected edges must be distinct")
        if not is_two_connected(g) or g.n == 2:
            raise NotTwoConnected("protected pair requires a 2-connected host != K2")
        pos = {e.eid: p for p, e in enumerate(edges)}
        cycle = _menger_cycle(g, e1, e2)
        w = max(cycle - {e1, e2})
        order = [p for p in chain(map(pos.get, cycle), order) if p != pos[w]]
    mask = _greedy_tree(g, edges, order)
    key, *cycles = _keys([mask, *_fundamental_cycles(g, edges, mask)], edges)
    in_tree = set(key)
    chords = [e.eid for e in edges if e.eid not in in_tree]
    trace = sorted(zip(chords, cycles), key=lambda entry: (entry[0] == w, entry[0]))
    return SpanningTree(g, key), trace


def _menger_cycle(g, e1, e2):
    """The edge ids of a cycle of the 2-connected g through its edges e1
    and e2. Subdivide e1 by a vertex s and e2 by a vertex t: the result is
    2-connected, so by Menger's theorem two s-t paths share no vertex but
    s and t, and together they are such a cycle. They are a flow of value
    two with unit vertex capacities: each vertex v is split into (v, 0),
    the head of its in-arcs, and (v, 1), the tail of its out-arcs, joined
    by one arc. Each of the two augmentations is one BFS of the residual
    graph, which follows an arc without flow forwards or one with flow
    backwards; the paths are then read off the flow from s."""
    adj = {(v, 0): [(v, 1)] for v in g.vertices}
    for v in g.vertices:
        adj[v, 1] = [(x, 0) for x, eid in g.adj(v).items() if eid != e1 and eid != e2]
    adj["s"], adj["t"] = [(v, 0) for v in g.edge(e1).endpoints()], []
    for v in g.edge(e2).endpoints():
        adj[v, 1].append("t")
    flow, into = set(), {x: [] for x in adj}
    for _ in range(2):
        parent = {"s": None}
        queue = ["s"]
        for x in queue:
            for y in chain([y for y in adj[x] if (x, y) not in flow], into[x]):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        y = "t"
        while y != "s":
            x = parent[y]
            if (y, x) in flow:
                flow.remove((y, x))
                into[x].remove(y)
            else:
                flow.add((x, y))
                into[y].append(x)
            y = x
    succ = dict(flow)
    cycle = {e1, e2}
    for x in adj["s"]:
        while x != "t":
            y = succ[x]
            if x[1] and y != "t":
                cycle.add(g.eid_between(x[0], y[0]))
            x = y
    return cycle
