"""Spanning tree counting, and enumeration with the exchanges between the
trees by one walk over tree masks."""

from decimal import Decimal
from heapq import heapify, heappop, heappush
from itertools import chain, repeat

from .errors import TooManyTrees, ValidationFailed
from .graph_core import _blocks, bfs
from .matroid import _fundamental_cycles, _greedy_tree, _pack, basis_walk

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
    rows, where an entry is rescaled only when a pivot reads it, by the
    telescoped ratio of two pivots, then on plain list rows for that
    clique, three pivots per pass in Bareiss's divided form (_block_count).
    Every division is exact: each leading principal minor of a connected
    graph's reduced Laplacian is positive in any symmetric order, and by
    Sylvester's identity every quotient taken is, up to sign, a minor of
    it. Raises Disconnected if g is not connected."""
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
    (a_ij p_k - a_ik a_kj) / p_(k-1). Where a_ik or a_kj is 0 that is a
    scaling by p_k / p_(k-1), and successive scalings telescope: an entry
    written at step t is brought to step k by p_(k-1) / p_(t-1), with
    p_(-1) = 1, exact because the result is the step-k entry. So beside its
    dict each row keeps the step at which each entry was written, and step
    k writes only the entries (i, j) with both i and j among the pivot
    row's columns, each caught up first if it is stale; every other entry
    waits. The pivot row is caught up once, when it pivots. Eliminating
    part of a Laplacian leaves a Laplacian (off-diagonal entries <= 0, the
    two terms above never cancel), so the entries written at step k are
    exactly the pairs of columns of the pivot row, and the nonzero entries
    are the symbolic fill. The tail that the order ends with is a clique of
    that fill, a dense matrix: the stale entries of its rows are caught up
    once, and each row becomes a plain list over its columns j >= i.

    The tail takes three steps per pass (Bareiss's divided multistep
    method). Let q = p_(s-1) and B the symmetric 3x3 block of step-s
    entries on rows and columns s, s+1, s+2. Sylvester's identity makes
    every r x r determinant of step-s entries q^(r-1) times a minor of
    order s + r, an integer. So:
    A = adj(B) / q is exact, its entries being 2x2 minors; the next pivot
    e = p_(s+2) = det(B) / q^2 = (b_00 A_00 + b_01 A_01 + b_02 A_02) / q is
    exact; and so is c_lj = (A_l0 a_sj + A_l1 a_s+1,j + A_l2 a_s+2,j) / q,
    the l-th entry of adj(B) times column j over q^2, each a 3x3
    determinant. The step-(s+3) entry a_ij is 1/q^3 times the 4x4
    determinant of B bordered by row i and column j, and its Schur
    expansion det(B) a_ij - (row i) adj(B) (column j) makes that
    (e a_ij - a_is c_0j - a_i,s+1 c_1j - a_i,s+2 c_2j) / q, exact. Each
    entry costs four products and one division per three steps, for the
    six and three of three single steps, and the rows are rebuilt a third
    as often. A tail of 3r rows ends on e. One row more ends on its
    diagonal entry, and two more on one two-step pass: the 2x2 minor of
    their step-s entries over q, (a_ss a_s+1,s+1 - a_s,s+1^2) / q.
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
    # scale[t] = p_(t-1), scale[0] = 1; steps[i][j] = the step at which
    # entry (i, j) was written
    steps = [dict.fromkeys(row, 0) for row in rows]
    scale = [1]
    for k in range(len(order)):
        prev = scale[k]
        pivot, written = rows[k], steps[k]
        rows[k] = steps[k] = None
        below = sorted((j, x * prev // scale[written[j]]) for j, x in pivot.items())
        p = below.pop(0)[1]  # column k sorts first
        scale.append(p)
        for r, (i, a) in enumerate(below):
            row, written = rows[i], steps[i]
            for j, b in below[r:]:
                x = row.get(j)
                if x is None:
                    row[j] = -a * b // prev
                else:
                    t = written[j]
                    if t != k:
                        x = x * prev // scale[t]
                    row[j] = (x * p - a * b) // prev
                written[j] = k + 1
    q, first = scale[-1], len(order)
    for row, written in zip(rows[first:], steps[first:]):
        for j, t in written.items():
            if t != first:
                row[j] = row[j] * q // scale[t]
    dense = [[row.get(j, 0) for j in range(i, size)]
             for i, row in zip(range(first, size), rows[first:])]
    n = len(dense)
    for s in range(0, n - 2, 3):
        r0, r1, r2 = dense[s], dense[s + 1], dense[s + 2]
        b00, b01, b02, b11, b12, b22 = r0[0], r0[1], r0[2], r1[0], r1[1], r2[0]
        a00 = (b11 * b22 - b12 * b12) // q
        a01 = (b02 * b12 - b01 * b22) // q
        a02 = (b01 * b12 - b02 * b11) // q
        a11 = (b00 * b22 - b02 * b02) // q
        a12 = (b01 * b02 - b00 * b12) // q
        a22 = (b00 * b11 - b01 * b01) // q
        e = (b00 * a00 + b01 * a01 + b02 * a02) // q
        cols = list(zip(r0[3:], r1[2:], r2[1:]))
        c0 = [(a00 * x + a01 * y + a02 * z) // q for x, y, z in cols]
        c1 = [(a01 * x + a11 * y + a12 * z) // q for x, y, z in cols]
        c2 = [(a02 * x + a12 * y + a22 * z) // q for x, y, z in cols]
        for i in range(s + 3, n):
            u0, u1, u2, off = r0[i - s], r1[i - s - 1], r2[i - s - 2], i - s - 3
            dense[i] = [(e * x - u0 * y0 - u1 * y1 - u2 * y2) // q
                        for x, y0, y1, y2 in zip(dense[i], c0[off:], c1[off:], c2[off:])]
        q = e
    if n % 3 == 1:
        return dense[-1][0]
    if n % 3 == 2:
        (p, b), (c,) = dense[-2:]
        return (p * c - b * b) // q
    return q


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


def enumerate_spanning_trees(g, max_trees=DEFAULT_MAX_TREES):
    """All spanning trees, sorted by canonical key, from the exchange walk
    (_walk), as a _Trees: the SpanningTree objects are decoded on the
    first read, and serialize_trees writes them from the masks. The
    Kirchhoff count is the size guard (TooManyTrees) and the completeness
    check (ValidationFailed)."""
    masks, _ = _walk(g, max_trees)
    return _Trees(g, masks)


def _walk(g, max_trees):
    """The exchange walk on masks: (masks, pairs), the trees in ascending
    key order (_keys decodes them with g.edges), and the index pairs (i, j),
    i < j, of trees one exchange apart in ascending order (a _Rows).

    The Kirchhoff count is the size guard (TooManyTrees) and the
    completeness check (ValidationFailed). The walk (basis_walk) starts
    from the greatest tree, Kruskal's over the positions in descending
    order, with its fundamental cycles, and finds the trees in descending
    key order. After it the list and each row are reversed once, in place,
    so row r holds rank r's greater neighbours in ascending order, and the
    rows read in order are the pairs in order."""
    expected = count_spanning_trees(g)
    if expected > max_trees:
        raise TooManyTrees(f"{_decimal(expected)} trees exceed guard {max_trees}")
    m = g.m
    start = _greedy_tree(g, reversed(range(m)))
    masks, rows = basis_walk(start, _pack(_fundamental_cycles(g, start), m), m, expected)
    if len(masks) != expected:
        raise ValidationFailed(f"exchange walk found {len(masks)} of {expected} trees")
    masks.reverse()
    rows.reverse()
    for row in rows:
        row.reverse()
    return masks, _Rows(rows)


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
    """Each mask's sorted edge-id tuple, edges the walked graph's edges."""
    return _decode(masks, [(e.eid,) for e in edges], ())


class _Trees:
    """The walk's trees as a sized, re-iterable sequence of SpanningTree,
    held as the walked graph, host, and the masks that _walk returns
    besides the pairs. The first index or iteration decodes every mask
    once, by host.edges, and keeps the trees; _labels decodes the masks
    straight to text and makes no tree."""

    __slots__ = ("host", "masks", "_trees")

    def __init__(self, host, masks):
        self.host, self.masks, self._trees = host, masks, None

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())

    def _decoded(self):
        if self._trees is None:
            host = self.host
            self._trees = tuple([SpanningTree(host, k) for k in _keys(self.masks, host.edges)])
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
        return [k[:-1] for k in _decode(trees.masks, [f"{e.eid}," for e in trees.host.edges], "")]
    return [",".join(map(str, t.key)) for t in trees]


def serialize_trees(trees):
    return "".join([f"t: {k}\n" for k in _labels(trees)])
