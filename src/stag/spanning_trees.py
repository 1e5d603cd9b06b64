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
    rows, then on plain list rows for that clique, two pivots per pass
    (_block_count). Every division is exact, as each leading principal
    minor of a connected graph's reduced Laplacian is positive in any
    symmetric order. Raises Disconnected if g is not connected."""
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
    lists over their columns j >= i.

    The tail takes two steps per pass (Bareiss's two-step method). With
    q = p_(s-1) and the step-s entries p = a_ss, b = a_s,s+1, c = a_s+1,s+1,
    Sylvester's identity makes every 2x2 minor of rows s and s+1 q times a
    minor of order s + 2, an integer. So e = (pc - b^2) / q, the leading
    principal minor of order s + 2 (positive, the next pivot),
    c1_j = (c a_sj - b a_s+1,j) / q and c2_j = (p a_s+1,j - b a_sj) / q are
    exact. The step-(s+2) entry a_ij is 1/q^2 times the determinant of the
    step-s entries on rows s, s+1, i and columns s, s+1, j (Sylvester again),
    and expanding that along row i gives q (e a_ij - a_is c1_j -
    a_i,s+1 c2_j). So a_ij goes to (e a_ij - a_is c1_j - a_i,s+1 c2_j) / q,
    exact. The divisor is q, not the q^2 of the undivided form, because c1,
    c2 and e are divided first: the undivided form's products of three
    step-s entries grow faster than the passes it saves. Each entry costs
    three products and one division, for the four and two of two single
    steps, and the rows are rebuilt half as often. An odd tail ends on its
    last diagonal entry, an even one on e.
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
    t = len(dense)
    for s in range(0, t - 1, 2):
        r0, r1 = dense[s], dense[s + 1]
        p, b, c = r0[0], r0[1], r1[0]
        e = (p * c - b * b) // prev
        c1 = [(c * x - b * y) // prev for x, y in zip(r0[2:], r1[1:])]
        c2 = [(p * y - b * x) // prev for x, y in zip(r0[2:], r1[1:])]
        for i in range(s + 2, t):
            a0, a1, off = r0[i - s], r1[i - s - 1], i - s - 2
            dense[i] = [(e * x - a0 * u - a1 * v) // prev
                        for x, u, v in zip(dense[i], c1[off:], c2[off:])]
        prev = e
    return dense[-1][0] if t % 2 else prev


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
