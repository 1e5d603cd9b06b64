"""The binary matroid [I | A] of a basis, packed: its fundamental circuits
as masks in one int, their pivot by one exchange, and the walk over all
bases by exchanges."""

from heapq import heappop, heappush

from .graph_core import _UnionFind, bfs


def _bits(edges):
    """The walk's {eid: bit} of a graph's edges: position p is bit m - 1 - p."""
    m = len(edges)
    return {e.eid: 1 << (m - 1 - p) for p, e in enumerate(edges)}


def _greedy_tree(g, order):
    """Kruskal's greedy tree: the mask, in _walk's bit order, of the edges
    at the positions in order (into g.edges) that join two components when
    taken in that order."""
    edges = g.edges
    bit = _bits(edges)
    uf = _UnionFind(g.vertices)
    return sum(bit[edges[p].eid] for p in order if uf.union(edges[p].u, edges[p].v))


def _fundamental_cycles(g, tree):
    """The fundamental cycles of the spanning tree `tree` of g, a mask in
    the walk's bit order, as masks with the chord bit, one per non-tree
    edge in ascending id order: C_e = e | (r(u) ^ r(v)), with r(x) the mask
    of the tree path from g.vertices[0] to x, read off one BFS of the
    tree. None when the mask is not a spanning tree of g."""
    edges = g.edges
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
    and C_e as it draws f from C_e, and exchange looks them up.

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


def exchange(packed, e, f, ones, full):
    """The packed circuits of B - f + e, by one _pivot of those of the basis
    B, e a one-bit mask off B and f one in B; or None when f is off C_e, so
    that B - f + e is no basis. ones is _pack([1] * c, m) and full the m-bit
    mask. e lies on no circuit but its own, which gives its slot and C_e."""
    slot = ((packed >> (e.bit_length() - 1)) & ones).bit_length() - 1
    ce = packed >> slot & full
    return _pivot(packed, slot, ce, f, ones) if ce & f else None


def basis_walk(start, packed, m, count):
    """The bases of a binary matroid on m elements as masks, and the
    exchanges between them, from its least basis mask start, its circuits
    at start packed (_pack) and its number of bases count: (masks, rows),
    masks ascending and rows[k] the ranks, descending, of masks[k]'s
    smaller neighbours, the k-th popped taking rank count - 1 - k. The
    caller checks that the walk found count bases. In _bits order a greater
    key is a smaller mask; param_report reads the masks too: the edge each
    exchange adds and removes, and each tree's complement.

    The walk pops masks from a min-heap, so they come out ascending. By
    induction: a basis B that is not the least has an exchange B - f + e
    with a smaller mask, as a basis has the least mask iff no single
    exchange makes it smaller (Gale 1968); that basis was popped before B
    and pushed it. From each basis the walk follows only the exchanges to
    greater masks, f a lower bit than e, so each is recorded once, at its
    smaller end, which appends its rank to the greater end's row. When a
    basis is popped every smaller neighbour has been, so its row holds
    their ranks, each once, in descending order.

    A pending basis's one entry in pending is [packed, rank, ...]: its
    circuits C_e, element bit included, as one packed int, then its row so
    far; popping the basis takes the int off the front. The f of its
    exchanges B - f + e are the basis bits of C_e, those with f below e
    the bits of C_e below e. A basis found for the first time gets its own
    by one _pivot of the slot and the C_e that the loop holds."""
    c = m - start.bit_count()
    full, ones = (1 << m) - 1, _pack([1] * c, m)
    slots = [s * m for s in range(c)]
    pending = {start: [packed]}
    heap = [start]
    masks = []
    rows = []
    rank = count
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
    return masks, rows
