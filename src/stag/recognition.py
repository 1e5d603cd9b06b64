"""Recognition of spanning tree auxiliary graphs and reconstruction of a
minimal preimage.

In Aux(G) the neighborhood of a tree T is the line graph of T's
fundamental graph B_T: tree edges on one side, non-tree edges on the
other, f ~ e when f lies on the fundamental cycle of e (Maurer 1973,
Matroid basis graphs I). `invert` reads a preimage off that structure in
three deterministic stages, with no search budget:

root
    At the anchor x, each edge yz of N(x) spans the class {y, z} plus the
    common neighbors of y and z inside N(x): the star of one node of B_T.
    The classes must be cliques covering every neighbor once or twice;
    a neighbor in one class hangs off a pendant root node. The root is
    B_T itself, a Graph whose edge y joins the two classes of y; a BFS
    gives its components, the blocks of the preimage, and its two sides.
layout
    In each block one side holds the tree edges and the other the
    non-tree edges (the smaller side first, then the other; swapping the
    sides gives the dual matroid, which has the same Aux). A complete
    search lays the tree edges out so that each non-tree edge's tree
    edges form a path; the chord joins the path's ends.
certificate
    x maps to T0 and each neighbor to T0 - f + e, read from its root
    nodes. The map extends along a BFS, each vertex from its grandparent
    and their common neighbors. It is checked vertex by vertex, with no
    enumeration of the reconstruction's trees: T0 spans, the map is
    one-to-one, every edge is an exchange, each tree is one pivot from its
    BFS parent's, and each degree equals its tree's number of exchanges.
    A tree's fundamental cycles ride along as one int, a slot of m bits
    per chord: the pivot to a BFS child and the exchange count (popcount
    less the number of chords) cost a few int operations per vertex.
    Then the image is closed under exchange, so it is all of Aux of the
    reconstruction and the map an isomorphism (McConnell, Mehlhorn, Naeher
    and Schweitzer 2011, Certifying algorithms).

Every rejection names the failed necessary condition.
"""

from __future__ import annotations

from itertools import islice

from .errors import Disconnected, NotAStag, NotMinimal, TooManyTrees
from .graph_core import Graph, bfs, bridges, single_vertex_graph
from .spanning_trees import DEFAULT_MAX_TREES, _fundamental_cycles

# -- root ---------------------------------------------------------------------


def neighborhood_root(h, x):
    """Root of N(x) as the line graph of a bipartite graph.

    Returns (classes, root, blocks): classes[i] is the star of root node i
    as a frozenset of neighbors of x, root the Graph on the nodes whose
    edge y joins the two classes that the neighbor y lies in, and blocks
    the root's components by lowest node, each as its two sides (the
    lowest node's first)."""
    nbrs = h.adj(x)
    classes = []
    member = {y: [] for y in nbrs}
    for y in sorted(nbrs):
        near = h.adj(y).keys() & nbrs
        if not near:
            raise NotAStag(f"no triangle: edge {x}-{y} lies in no triangle")
        for z in sorted(near):
            if not set(member[y]).isdisjoint(member[z]):
                continue
            cls = frozenset(near & h.adj(z).keys() | {y, z})
            if any(not cls - {w} <= h.adj(w).keys() for w in cls):
                raise NotAStag(
                    f"not a line graph of a triangle-free graph: class "
                    f"{sorted(cls)} of N({x}) is not a clique"
                )
            for w in cls:
                member[w].append(len(classes))
            classes.append(cls)
    for y in sorted(nbrs):
        if len(member[y]) == 1:
            member[y].append(len(classes))
            classes.append(frozenset((y,)))
        if len(member[y]) > 2:
            raise NotAStag(
                f"not a line graph of a triangle-free graph: {y} lies in "
                f"{len(member[y])} classes of N({x})"
            )
    if len({tuple(member[y]) for y in nbrs}) != len(nbrs):
        raise NotAStag(
            f"not a line graph of a triangle-free graph: two neighbors of {x} "
            f"lie in the same two classes"
        )
    root = Graph(range(len(classes)), [(y, *member[y]) for y in sorted(nbrs)])
    side = {}
    blocks = []
    for start in root.vertices:
        if start not in side:
            tree = bfs(root, start)
            for a, (b, _) in tree.items():
                side[a] = 0 if b is None else 1 - side[b]
            blocks.append(tuple(sorted(a for a in tree if side[a] == k) for k in (0, 1)))
    if any(side[a] == side[b] for a, b in root.edge_pairs()):
        raise NotAStag(f"root not bipartite: the root of N({x}) has an odd cycle")
    return classes, root, blocks


# -- layout -------------------------------------------------------------------


def layout(tree, paths):
    """Lay the tree nodes out as a tree on vertices 0..len(tree) in which
    the tree nodes paths[c] of every cycle c form a path. The cycles must
    connect all tree nodes, as they do in one component of a root.

    Complete search: at each step the open cycle with the fewest legal
    moves is extended by one of its remaining tree nodes, attached as a
    new leaf at one end of its path. Returns (place, ends), place[f] the
    vertex pair of tree node f in placement order and ends[c] the two
    ends of c's path, or None when no such tree exists."""
    labels = {f: [] for f in tree}
    for c in sorted(paths):
        for f in paths[c]:
            labels[f].append(c)
    remaining = {c: set(p) for c, p in paths.items()}
    place = {}
    ends = {}
    undo = []

    def attach(f, u):
        v = len(place) + 1
        place[f] = (u, v)
        old = [(c, ends.get(c)) for c in labels[f]]
        for c, a in old:
            ends[c] = (u, v) if a is None else (v, a[1]) if a[0] == u else (a[0], v)
            remaining[c].discard(f)
        undo.append((f, old))

    def detach():
        f, old = undo.pop()
        del place[f]
        for c, a in old:
            remaining[c].add(f)
            if a is None:
                del ends[c]
            else:
                ends[c] = a

    def moves():
        best = []
        for c in sorted(ends):
            if not remaining[c]:
                continue
            legal = [
                (f, u)
                for f in sorted(remaining[c])
                for u in ends[c]
                if all(d not in ends or u in ends[d] for d in labels[f])
            ]
            if not legal:
                return []
            if not best or len(legal) < len(best):
                best = legal
        return best

    attach(tree[0], 0)
    frames = []
    while len(place) < len(tree):
        frames.append(iter(moves()))
        while (move := next(frames[-1], None)) is None:
            frames.pop()
            if not frames:
                return None
            detach()
        attach(*move)
    return place, ends


def _block(tree, cycles, root):
    """Layout of one root component with the given side as tree edges,
    or None when that side does not describe a simple graph."""
    paths = {c: set(root.adj(c)) for c in cycles}
    if any(len(p) < 2 for p in paths.values()):
        return None  # a chord would parallel a tree edge
    if len({frozenset(p) for p in paths.values()}) != len(paths):
        return None  # two chords would be parallel
    return layout(tree, paths)


# -- inversion ----------------------------------------------------------------


def invert(h, max_trees=DEFAULT_MAX_TREES):
    """Minimal preimage of h: a graph without bridges whose Aux is h.

    Root: N(x) at x = h.vertices[0] is read as the line graph of the
    fundamental graph of one tree T0; its components are the blocks.
    Layout: each block's tree edges are laid out so that every non-tree
    edge closes a path; the blocks share one vertex. Certificate: the
    labeling of N(x) extends along the one BFS of h to a map into the
    spanning trees of the result, whose degrees and exchanges are checked
    vertex by vertex (_certify). A disconnected h raises Disconnected; a
    verdict of NotAStag names the necessary condition that failed; more
    than max_trees vertices raise TooManyTrees."""
    x = h.vertices[0]
    span = bfs(h, x)
    if len(span) != h.n:
        raise Disconnected("recognition needs a connected candidate")
    if h.n == 1:
        return single_vertex_graph()
    if h.n > max_trees:
        raise TooManyTrees(f"{h.n} trees exceed guard {max_trees}")
    _, root, blocks = neighborhood_root(h, x)
    pairs = []
    pos = {}
    trees = []
    next_vertex = 1
    for block in blocks:
        sides = sorted(block, key=len)
        for tree, cycles in (sides, sides[::-1]):
            found = _block(tree, cycles, root)
            if found is not None:
                break
        else:
            raise NotAStag(
                f"neither side is graphic: no tree realizes root block {block[0][0]} of N({x})"
            )
        place, path_ends = found
        base = next_vertex - 1
        for a, (u, v) in [*place.items(), *((c, path_ends[c]) for c in cycles)]:
            pos[a] = len(pairs)
            pairs.append((u + base if u else 0, v + base if v else 0))
        trees += tree
        next_vertex += len(tree)
    g = Graph.from_pairs(pairs, vertices=range(next_vertex))
    top = len(pairs) - 1
    bit = {a: 1 << (top - p) for a, p in pos.items()}
    tree_mask = sum(bit[a] for a in trees)
    phi = {y: tree_mask ^ bit[a] ^ bit[b] for y, a, b in root.edges}
    _certify(h, span, g, tree_mask, phi)
    return g


def _certify(h, span, g, t0, phi):
    """Check that h is Aux(g) under the map that sends the first vertex x
    of span, a BFS tree of all of h, to the tree t0 and each neighbor y of
    x to the tree phi[y], extended along span.

    A vertex w two levels below its grandparent u differs from it by two
    exchanges, and the common neighbors of u and w, one level between
    them, take each half: phi(w) = phi(u) - removed + added. Trees are
    masks in the bit order of spanning_trees._fundamental_cycles: g's edge
    ids are 0..m-1 and edge p is bit m - 1 - p.

    The checks: t0 is a spanning tree of g; phi is one-to-one; every edge
    of h joins two trees whose masks differ in two bits; each vertex w's
    tree is its BFS parent v's less one edge f on the fundamental cycle
    C_e of one chord e of phi(v), plus e, so every tree is spanning; and
    deg_h(w) is the number of exchanges of phi(w), the sum over its
    chords c of |C_c| - 1. No tree of g is enumerated. A degree that does
    not match is reported only after every tree has been found spanning,
    so a map off the spanning trees is named as such.

    Packed cycles: a tree's c = m - n + 1 fundamental cycles are one int
    of c * m bits (_pack). Slot s, the m bits from s * m, holds the cycle
    of the tree's s-th chord, at t0 in ascending id order. They pass from
    v to w = v - f + e by one pivot, as in the exchange walk: chord f gets
    C_e, and every C_c through f becomes C_c ^ C_e (_pivot). With pos(e)
    the bit index of e and ones the int with bit s * m set for every
    slot, (P >> pos(e)) & ones marks the slots whose cycle holds e: only
    e's own, as a chord lies on no other fundamental cycle, so its one bit
    is e's slot, and C_e the m bits there. (P >> pos(f)) & ones marks the
    cycles through f; times C_e it holds C_e in each of those slots, with
    no carry between slots, and the XOR pivots them. f is on C_e, so e's
    slot is among them and becomes 0; the OR then writes C_e there, the
    cycle of the new chord f. The number of exchanges of the tree is the
    popcount less c.

    Lemma: let h be connected and phi a one-to-one map into the spanning
    trees of g under which every edge of h is an exchange and every degree
    matches. Then phi is an isomorphism onto Aux(g). Proof: phi maps
    N_h(w) one-to-one into the Aux-neighbors of phi(w), a set of the same
    size, so onto it. The image is therefore closed under exchange, and
    Aux(g) is connected (any two bases are joined by exchanges), so the
    image is all of it. phi is then a bijection whose edges and non-edges
    correspond: an Aux-neighbor of phi(w) is phi of a neighbor of w."""
    x = next(iter(span))
    phi[x] = t0
    for w in islice(span, len(phi), None):
        v = span[w][0]
        u = span[v][0]
        pu = phi[u]
        removed = added = 0
        for z in h.adj(u).keys() & h.adj(w).keys():
            removed |= pu & ~phi[z]
            added |= phi[z] & ~pu
        if removed.bit_count() != 2 or added.bit_count() != 2:
            raise NotAStag(
                f"certificate does not extend: vertex {w} is not two exchanges "
                f"from vertex {u}"
            )
        phi[w] = pu ^ removed ^ added
    cycles = _fundamental_cycles(g, t0)
    if cycles is None:
        raise NotAStag(
            f"certificate does not extend: the tree of vertex {x} is not a spanning "
            f"tree of the reconstruction"
        )
    c = len(cycles)
    m = g.m
    full = (1 << m) - 1
    ones = _pack([1] * c, m)
    first = {}
    for w, t in phi.items():
        if first.setdefault(t, w) != w:
            raise NotAStag(
                f"certificate does not extend: vertices {first[t]} and {w} map to the same tree"
            )
    for a, b in h.edge_pairs():
        if (phi[a] ^ phi[b]).bit_count() != 2:
            raise NotAStag(f"certificate does not extend: edge {a}-{b} is not an exchange")
    packed_of = {}
    parent = x
    packed = _pack(cycles, m)
    short = None
    for w, (v, _) in span.items():
        if v is None:
            own = packed
        else:
            if v != parent:  # a BFS parent's children are contiguous in span
                parent, packed = v, packed_of.pop(v)
            pv = phi[v]
            own = _pivot(packed, phi[w] & ~pv, pv & ~phi[w], full, ones)
            if own is None:
                raise NotAStag(
                    f"certificate does not extend: vertex {w} is not one exchange "
                    f"from vertex {v}"
                )
            packed_of[w] = own
        k = own.bit_count() - c
        if short is None and len(h.adj(w)) != k:
            short = (w, len(h.adj(w)), k)
    if short is not None:
        raise NotAStag(
            "count mismatch: vertex {} has degree {}, its tree has {} exchanges".format(*short)
        )


def _pack(cycles, m):
    """The cycles, masks of m bits, as one int: cycle s in the m bits from
    bit s * m (see _certify)."""
    return sum(cycle << s * m for s, cycle in enumerate(cycles))


def _pivot(packed, e, f, full, ones):
    """The packed cycles of the tree T - f + e from those of T, e a chord
    and f a tree edge of T, each a one-bit mask; None when f is not on the
    cycle of e. full is the m-bit mask and ones _pack([1] * c, m); the
    layout and the proof are in _certify."""
    slot = ((packed >> (e.bit_length() - 1)) & ones).bit_length() - 1
    ce = (packed >> slot) & full
    if not ce & f:
        return None
    return packed ^ ((packed >> (f.bit_length() - 1)) & ones) * ce | ce << slot


def enumerate_preimages(g_min, budget):
    """Up to budget further preimages: attach pendant edges (K2 blocks)
    breadth-first; every output has the same auxiliary graph."""
    if bridges(g_min):
        raise NotMinimal("input has a K2 block (bridge)")
    graphs = [g_min]
    for g in graphs:
        w = max(g.vertices) + 1
        eid = max(g.edge_ids(), default=-1) + 1
        for v in g.vertices:
            if len(graphs) > budget:
                return graphs[1:]
            graphs.append(Graph(g.vertices + (w,), [*g.edges, (eid, v, w)]))
    return graphs[1:]
