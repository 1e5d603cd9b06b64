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
    2-colored, and its components are the blocks of the preimage.
layout
    In each block one color holds the tree edges and the other the
    non-tree edges (the smaller side first, then the other; swapping the
    sides gives the dual matroid, which has the same Aux). A complete
    search lays the tree edges out so that each non-tree edge's tree
    edges form a path; the chord joins the path's ends.
certificate
    x maps to T0 and each neighbor to T0 - f + e, read from its root
    nodes. The map extends along a BFS, each vertex from its grandparent
    and their common neighbors, and is checked edge by edge against the
    exchange walk of the reconstruction (McConnell, Mehlhorn, Naeher and
    Schweitzer 2011, Certifying algorithms).

Every rejection names the failed necessary condition.
"""

from __future__ import annotations

from collections import deque

from .errors import Disconnected, NotAStag, NotMinimal, TooManyTrees
from .graph_core import Graph, block_decomposition, is_connected, single_vertex_graph
from .spanning_trees import DEFAULT_MAX_TREES, _exchange_walk

# -- root ---------------------------------------------------------------------


def neighborhood_root(h, x):
    """Root of N(x) as the line graph of a bipartite graph.

    Returns (classes, ends, blocks): classes[i] is the star of root node i
    as a frozenset of neighbors of x, ends[y] the two root nodes that the
    neighbor y joins, and blocks the root's components by lowest node,
    each as its two color classes (the lowest node in the first)."""
    nbrs = h.adj(x)
    classes = []
    member = {y: [] for y in nbrs}
    for y in sorted(nbrs):
        near = sorted(z for z in h.adj(y) if z in nbrs)
        if not near:
            raise NotAStag(f"no triangle: edge {x}-{y} lies in no triangle")
        for z in near:
            if set(member[y]) & set(member[z]):
                continue
            cls = frozenset([y, z] + [w for w in near if w in h.adj(z)])
            if any(v != w and v not in h.adj(w) for w in cls for v in cls):
                raise NotAStag(
                    f"not a line graph of a triangle-free graph: class "
                    f"{sorted(cls)} of N({x}) is not a clique"
                )
            for w in cls:
                member[w].append(len(classes))
            classes.append(cls)
    ends = {}
    for y in sorted(nbrs):
        if len(member[y]) == 1:
            member[y].append(len(classes))
            classes.append(frozenset((y,)))
        if len(member[y]) > 2:
            raise NotAStag(
                f"not a line graph of a triangle-free graph: {y} lies in "
                f"{len(member[y])} classes of N({x})"
            )
        ends[y] = tuple(member[y])
    if len(set(ends.values())) != len(ends):
        raise NotAStag(
            f"not a line graph of a triangle-free graph: two neighbors of {x} "
            f"lie in the same two classes"
        )
    color = [None] * len(classes)
    blocks = []
    for start in range(len(classes)):
        if color[start] is not None:
            continue
        color[start] = 0
        comp = [start]
        for a in comp:
            for b in across(classes, ends, a):
                if color[b] is None:
                    color[b] = 1 - color[a]
                    comp.append(b)
                elif color[b] == color[a]:
                    raise NotAStag(f"root not bipartite: the root of N({x}) has an odd cycle")
        blocks.append(tuple(sorted(a for a in comp if color[a] == k) for k in (0, 1)))
    return classes, ends, blocks


def across(classes, ends, a):
    """The root nodes adjacent to node a."""
    return {b for y in classes[a] for b in ends[y] if b != a}


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


def _block(tree, cycles, classes, ends):
    """Layout of one root component with the given side as tree edges,
    or None when that side does not describe a simple graph."""
    paths = {c: across(classes, ends, c) for c in cycles}
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
    labeling of N(x) extends along a BFS to a map onto the spanning
    trees of the result, checked edge by edge against its exchange walk.
    A verdict of NotAStag names the necessary condition that failed;
    more than max_trees vertices raise TooManyTrees."""
    if not is_connected(h):
        raise Disconnected("recognition needs a connected candidate")
    if h.n == 1:
        return single_vertex_graph()
    if h.n > max_trees:
        raise TooManyTrees(f"{h.n} trees exceed guard {max_trees}")
    x = h.vertices[0]
    classes, ends, blocks = neighborhood_root(h, x)
    pairs = []
    eid = {}
    tree_mask = 0
    next_vertex = 1
    for block in blocks:
        sides = sorted(block, key=len)
        for tree, cycles in (sides, sides[::-1]):
            found = _block(tree, cycles, classes, ends)
            if found is not None:
                break
        else:
            raise NotAStag(
                f"neither side is graphic: no tree realizes root block {block[0][0]} of N({x})"
            )
        place, path_ends = found
        base = next_vertex - 1
        for a, (u, v) in [*place.items(), *((c, path_ends[c]) for c in cycles)]:
            eid[a] = len(pairs)
            pairs.append((u + base if u else 0, v + base if v else 0))
        tree_mask |= sum(1 << eid[a] for a in tree)
        next_vertex += len(tree)
    g = Graph.from_pairs(pairs, vertices=range(next_vertex))
    phi = {y: tree_mask ^ (1 << eid[a]) ^ (1 << eid[b]) for y, (a, b) in ends.items()}
    _certify(h, x, g, tree_mask, phi)
    return g


def _certify(h, x, g, t0, phi):
    """Check that h is Aux(g) under the map that sends x to the tree t0
    and each neighbor y to the tree phi[y], extended along a BFS from x.

    A vertex w two levels below its grandparent u differs from it by two
    exchanges, and the common neighbors of u and w, one level between
    them, take each half: phi(w) = phi(u) - removed + added. The map must
    be a bijection onto the spanning trees of g that sends every edge of
    h to one exchange, and g must have exactly h.m exchanges."""
    parent = dict.fromkeys(phi, x)
    queue = deque(sorted(phi))
    phi[x] = t0
    parent[x] = None
    while queue:
        v = queue.popleft()
        for w in sorted(h.adj(v)):
            if w in parent:
                continue
            parent[w] = v
            u = parent[v]
            adj_w = h.adj(w)
            pu = phi[u]
            removed = added = 0
            for z in h.adj(u):
                if z in adj_w:
                    removed |= pu & ~phi[z]
                    added |= phi[z] & ~pu
            if removed.bit_count() != 2 or added.bit_count() != 2:
                raise NotAStag(
                    f"certificate does not extend: vertex {w} is not two exchanges "
                    f"from vertex {u}"
                )
            phi[w] = pu ^ removed ^ added
            queue.append(w)
    try:
        keys, _, m = _exchange_walk(g, h.n)
    except TooManyTrees:
        raise NotAStag(
            f"count mismatch: the reconstruction has more than {h.n} spanning trees"
        ) from None
    if len(keys) != h.n:
        raise NotAStag(
            f"count mismatch: the reconstruction has {len(keys)} spanning trees, not {h.n}"
        )
    if set(phi.values()) != {sum(1 << e for e in key) for key in keys}:
        raise NotAStag("certificate does not extend: the map is not onto the spanning trees")
    for e in h.edges:
        if (phi[e.u] ^ phi[e.v]).bit_count() != 2:
            raise NotAStag(f"certificate does not extend: edge {e.u}-{e.v} is not an exchange")
    if m != h.m:
        raise NotAStag(f"count mismatch: the reconstruction has {m} exchanges, not {h.m}")


def enumerate_preimages(g_min, budget):
    """Up to budget further preimages: attach pendant edges (K2 blocks)
    breadth-first; every output has the same auxiliary graph."""
    if g_min.n > 1 and any(b.m == 1 for b in block_decomposition(g_min).blocks):
        raise NotMinimal("input has a K2 block (bridge)")
    out = []
    frontier = deque([g_min])
    while frontier and len(out) < budget:
        g = frontier.popleft()
        for v in g.vertices:
            if len(out) >= budget:
                break
            w = max(g.vertices) + 1
            g2 = Graph(
                g.vertices + (w,),
                [(e.eid, e.u, e.v) for e in g.edges] + [(g.m, v, w)],
            )
            out.append(g2)
            frontier.append(g2)
    return out
