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
certificate
    The root is a binary matroid in standard form [I | A]: the smaller
    side of each block is the basis T0, and chord c's circuit is c plus
    its root neighbors. x maps to T0 and each neighbor to T0 - f + e, and
    the map extends along a BFS of h. Checked vertex by vertex with no
    basis enumerated (_certify), it makes h that matroid's basis graph
    before any layout runs.
layout
    In each block one side holds the tree edges (the smaller first, then
    the other: the dual matroid has the same basis graph). A side with two
    parallel elements describes no simple graph. Otherwise a complete
    search over one tree edge per series class lays them out so that each
    chord's tree edges form a path; the chord joins its ends. The result
    is checked against the root (each chord closes its root circuit): a
    mismatch is a program fault, ValidationFailed, not a verdict.

Every rejection names the failed necessary condition.
"""

from itertools import count, islice

from .errors import Disconnected, NotAStag, NotMinimal, ValidationFailed
from .graph_core import Graph, bfs, bridges, single_vertex_graph
from .matroid import _bits, _fundamental_cycles, _pack, exchange

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

    Tree nodes on exactly the same cycles form a series class, and every
    cycle holds a whole class or none of it: a layout of one node per
    class subdivides into a full one with the same path ends, and
    contracting a full one gives a reduced one. Complete search over the
    first node of each class: at each step the open cycle with the fewest
    legal moves is extended by one of its unplaced nodes, attached as a
    new leaf at one end of its path. Each step's frame holds its moves and
    the path ends it started from: a failed branch pops it and the last
    placement. Then, in placement order, each node's (u, v) becomes the
    path u - w1 - ... - v through its class in tree order, w1, ... fresh
    vertices. Returns (place, ends), place[f] the vertex pair of tree node
    f and ends[c] the two ends of c's path, or None when no tree exists."""
    labels = {f: [] for f in tree}
    for c in sorted(paths):
        for f in paths[c]:
            labels[f].append(c)
    classes = {}
    for f in tree:
        classes.setdefault(tuple(labels[f]), []).append(f)
    heads = {members[0]: members for members in classes.values()}
    heads_on = {c: sorted(heads.keys() & p) for c, p in paths.items()}
    place = {}

    def attach(f, u, ends):
        v = len(place) + 1
        place[f] = (u, v)
        ends = dict(ends)
        for c in labels[f]:
            a = ends.get(c)
            ends[c] = (u, v) if a is None else (v, a[1]) if a[0] == u else (a[0], v)
        return ends

    def moves(ends):
        best = []
        for c in sorted(ends):
            if not (free := [f for f in heads_on[c] if f not in place]):
                continue
            legal = [(f, u) for f in free for u in ends[c]
                     if all(d not in ends or u in ends[d] for d in labels[f])]
            if not legal:
                return []
            if not best or len(legal) < len(best):
                best = legal
        return best

    ends = attach(tree[0], 0, {})
    frames = []
    while len(place) < len(heads):
        frames.append((iter(moves(ends)), ends))
        while (move := next(frames[-1][0], None)) is None:
            frames.pop()
            if not frames:
                return None
            place.popitem()
        ends = attach(*move, frames[-1][1])
    full = {}
    fresh = count(len(heads) + 1)
    for f, (u, v) in place.items():
        chain = [u, *islice(fresh, len(heads[f]) - 1), v]
        full.update(zip(heads[f], zip(chain, chain[1:])))
    return full, ends


def _block(root, small, large, where):
    """(tree, cycles, (place, ends)) for the first side of one root
    component, (small, large) then (large, small), whose tree lays out. A
    side describes no simple graph when two elements are parallel (a chord
    whose path is one tree node, or two chords with one path) or layout
    finds no tree; if both fail, NotAStag names where and both reasons."""
    reasons = []
    for tree, cycles in ((small, large), (large, small)):
        paths = {c: set(root.adj(c)) for c in cycles}
        first = {}
        for c, p in paths.items():
            twin = min(p) if len(p) == 1 else first.setdefault(frozenset(p), c)
            if twin != c:
                reasons.append(f"elements {min(c, twin)} and {max(c, twin)} are parallel")
                break
        else:
            if found := layout(tree, paths):
                return tree, cycles, found
            reasons.append("not graphic")
    matroid = f"{where}, a binary matroid on {len(small + large)} elements of rank {len(small)}"
    if reasons == ["not graphic"] * 2:
        raise NotAStag(f"neither side is graphic: no tree realizes {matroid}")
    raise NotAStag(f"no simple graph realizes {matroid}: {reasons[0]}; in its dual, {reasons[1]}")


# -- inversion ----------------------------------------------------------------


def invert(h):
    """Minimal preimage of h: a graph without bridges whose Aux is h.

    Root: N(x) at x = h.vertices[0] is read as the fundamental graph of
    one basis T0 of a binary matroid; its components are the blocks.
    Certificate: the labeling of N(x) extends along the one BFS of h to a
    map into the bases of that matroid, whose degrees and exchanges are
    checked vertex by vertex (_certify). Layout: each block's tree edges
    are laid out so that every non-tree edge closes a path; the blocks
    share one vertex. A disconnected h raises Disconnected; a verdict of
    NotAStag names the necessary condition that failed (for a block, why
    each side fails: _block); a layout that does not realize the root
    raises ValidationFailed. No tree guard: h is already in memory, and
    only the layout searches, on the root. h is read only through its
    vertices and adjacency."""
    x = h.vertices[0]
    span = bfs(h, x)
    if len(span) != h.n:
        raise Disconnected("recognition needs a connected candidate")
    if h.n == 1:
        return single_vertex_graph()
    _, root, blocks = neighborhood_root(h, x)
    sides = [sorted(block, key=len) for block in blocks]
    t0 = sum(1 << a for basis, _ in sides for a in basis)
    circuits = [sum(1 << a for a in (c, *root.adj(c))) for _, cs in sides for c in cs]
    phi = {y: t0 ^ (1 << a) ^ (1 << b) for y, a, b in root.edges}
    _certify(h, span, t0, phi, circuits, root.n)
    pairs = []
    pos = {}
    trees = []
    chords = []
    for block, (small, large) in zip(blocks, sides):
        base = len(trees)
        where = f"root block {block[0][0]} of N({x})"
        tree, cycles, (place, ends) = _block(root, small, large, where)
        for a, (u, v) in [*place.items(), *((c, ends[c]) for c in cycles)]:
            pos[a] = len(pairs)
            pairs.append((u + base if u else 0, v + base if v else 0))
        trees += tree
        chords += cycles
    g = Graph.from_pairs(pairs, vertices=range(len(trees) + 1))
    bit = _bits(g.edges)
    built = _fundamental_cycles(g, sum(bit[pos[a]] for a in trees))
    if built != [sum(bit[pos[a]] for a in (c, *root.adj(c))) for c in chords]:
        raise ValidationFailed("layout: a chord of the reconstruction does not close its root circuit")
    return g


def _certify(h, span, t0, phi, cycles, m):
    """Check that h is the basis graph of the binary matroid whose
    fundamental circuits at the basis t0 are cycles, masks of m bits with
    the chord bit, under the map that sends the first vertex x of span, a
    BFS tree of all of h, to t0 and each neighbor y of x to the basis
    phi[y], extended along span.

    A vertex w two levels below its grandparent u differs from it by two
    exchanges, and the common neighbors of u and w, one level between
    them, take each half: phi(w) = phi(u) - removed + added.

    The checks: phi is one-to-one; every edge of h joins two bases whose
    masks differ in two bits; each vertex w's basis is its BFS parent v's
    less one element f on the fundamental circuit C_e of one chord e of
    phi(v), plus e, so every image is a basis; and deg_h(w) is the number
    of exchanges of phi(w), the sum over its chords c of |C_c| - 1. No
    basis is enumerated. A degree that does not match is reported only
    after every image has been found a basis, so a map off the bases is
    named as such. The circuits of each basis travel as one packed int:
    w = v - f + e is one matroid.exchange from v, or not one exchange if f
    is off C_e.

    Lemma: let h be connected and phi a one-to-one map into the bases of
    a matroid under which every edge of h is an exchange and every degree
    matches. Then phi is an isomorphism onto its basis graph. Proof: phi
    maps N_h(w) one-to-one into the neighbors of phi(w), a set of the
    same size, so onto it. The image is therefore closed under exchange,
    and the basis graph is connected (any two bases are joined by
    exchanges), so the image is all of it. phi is then a bijection whose
    edges and non-edges correspond: a neighbor of phi(w) is phi of a
    neighbor of w (McConnell, Mehlhorn, Naeher and Schweitzer 2011,
    Certifying algorithms)."""
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
    c = len(cycles)
    full = (1 << m) - 1
    ones = _pack([1] * c, m)
    first = {}
    for w, t in phi.items():
        if first.setdefault(t, w) != w:
            raise NotAStag(
                f"certificate does not extend: vertices {first[t]} and {w} map to the same tree"
            )
    for a in span:  # each edge once, from its lower end
        pa = phi[a]
        for b in h.adj(a):
            if b > a and (pa ^ phi[b]).bit_count() != 2:
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
            packed_of[w] = own = exchange(packed, phi[w] & ~pv, pv & ~phi[w], ones, full)
            if own is None:
                raise NotAStag(
                    f"certificate does not extend: vertex {w} is not one exchange "
                    f"from vertex {v}"
                )
        k = own.bit_count() - c
        if short is None and len(h.adj(w)) != k:
            short = (w, len(h.adj(w)), k)
    if short is not None:
        raise NotAStag(
            "count mismatch: vertex {} has degree {}, its tree has {} exchanges".format(*short)
        )


def enumerate_preimages(g_min, budget):
    """Up to budget further preimages: attach pendant edges (K2 blocks)
    breadth-first; every output has the same auxiliary graph. Each keeps
    the names of the graph it grows from, if that has any, and names its
    new vertex w by the least integer >= w that no vertex is named."""
    if bridges(g_min):
        raise NotMinimal("input has a K2 block (bridge)")
    graphs = [g_min]
    for g in graphs:
        w = max(g.vertices) + 1
        eid = max(g.edge_ids(), default=-1) + 1
        names = g._names
        if names is not None:
            taken = set(names.values())
            names = {**names, w: next(str(k) for k in count(w) if str(k) not in taken)}
        for v in g.vertices:
            if len(graphs) > budget:
                return graphs[1:]
            graphs.append(Graph(g.vertices + (w,), [*g.edges, (eid, v, w)], names))
    return graphs[1:]
