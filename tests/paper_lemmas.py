"""The paper's lemma witnesses, for tests: the exchange neighbourhoods of
a tree, the neighbourhood partitions and ground-truth cliques of Aux(G),
the witness edge and reverse-delete tree for a protected pair, the
common-cycle classes, and Aux as the product of its blocks' Aux graphs.

No command and no job of stag calls these; the tests check the library
against them (criterion 9's three-way equality, witness edges, the
block-product theorem). They use stag's own block, BFS and walk helpers,
so their edge ids and tree masks are the library's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import itemgetter

from stag.aux_graph import StagGraph, build_stag
from stag.errors import Disconnected, StagError
from stag.graph_core import (
    Graph,
    _blocks,
    bfs,
    block_decomposition,
    cartesian_product,
    is_connected,
    is_two_connected,
)
from stag.params import _clique_number, _exchange_diameter, _masks
from stag.matroid import _bits, _fundamental_cycles, _greedy_tree
from stag.spanning_trees import DEFAULT_MAX_TREES, SpanningTree, _keys


class HasBridge(StagError):
    def __init__(self, edge_id):
        self.edge_id = edge_id
        super().__init__(f"graph has a bridge (edge {edge_id})")


class EdgeInTree(StagError):
    pass


class NotTwoConnected(StagError):
    pass


class NoWitness(StagError):
    pass


class Unannotated(StagError):
    pass


# -- cycles and common-cycle classes ------------------------------------------------


def common_cycle_classes(g):
    """Equivalence classes of the lie-on-a-common-cycle edge relation.

    Defined for bridgeless connected graphs; the classes coincide with the
    per-block edge sets.
    """
    blocks = _blocks(g, "common cycle classes need")[0]
    for b in blocks:
        if len(b) == 1:
            raise HasBridge(b[0].eid)
    return sorted((frozenset(map(itemgetter(0), b)) for b in blocks), key=min)


def fundamental_cycle_edges(g, tree_eids, eid):
    """Cycle of tree+e as an ordered edge-id list: e, then the tree path
    from e's higher end v to its lower end u, read off a BFS from v over
    the tree edges."""
    _, u, v = g.edge(eid)
    tree = bfs(g, v, tree_eids)
    path = []
    while u != v:
        u, k = tree[u]
        path.append(k)
    return [eid, *reversed(path)]


# -- tree exchanges and witnesses --------------------------------------------------


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
    bit = _bits(g.edges)
    chords = [e.eid for e in g.edges if e.eid not in t.edge_set]
    pair = bit[e1] | bit[e2]
    for eid, cycle in zip(chords, _fundamental_cycles(g, sum(bit[e] for e in t.edge_set))):
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
    edges = g.edges
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
    mask = _greedy_tree(g, order)
    key, *cycles = _keys([mask, *_fundamental_cycles(g, mask)], edges)
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


# -- Aux(G): neighbourhoods, cliques and the block product ------------------------


@dataclass(frozen=True)
class NeighborhoodPartitions:
    """The two clique partitions of one stag vertex's neighborhood.

    cut_classes: (tree edge id, neighbor set) per tree edge, n-1 entries.
    cycle_classes: (non-tree edge id, neighbor set) per non-tree edge,
    m-n+1 entries.
    """

    cut_classes: tuple
    cycle_classes: tuple


@dataclass(frozen=True)
class CliqueClass:
    members: frozenset
    tag: str  # 'cycle' | 'cut' | 'undetermined'
    size: int


def neighborhood_partitions(s, v):
    """Partition N(v) by deleted tree edge (cut classes) and by added
    non-tree edge (cycle classes)."""
    if not s.annotated:
        raise Unannotated("stag has no tree annotations")
    g = s.origin
    t = s.trees[v]
    cut = {f: set() for f in t.key}
    cyc = {e.eid: set() for e in g.edges if e.eid not in t.edge_set}
    for w in s.graph.adj(v):
        t2 = s.trees[w]
        (removed,) = t.edge_set - t2.edge_set
        (added,) = t2.edge_set - t.edge_set
        cut[removed].add(w)
        cyc[added].add(w)
    return NeighborhoodPartitions(
        tuple((f, frozenset(ws)) for f, ws in sorted(cut.items())),
        tuple((e, frozenset(ws)) for e, ws in sorted(cyc.items())),
    )


def ground_truth_cliques(s):
    """All cycle and cut cliques of the stag, derived from the origin.

    Cycle clique: fix a cycle C and a compatible forest F; members are
    F + (C minus one edge). Cut clique: fix the two-sided forest of a tree
    minus one edge; members reconnect it by each edge of the induced
    minimal cut."""
    if not s.annotated:
        raise Unannotated("stag has no tree annotations")
    g = s.origin
    index = {t.key: i for i, t in enumerate(s.trees)}
    found = {}
    for t in s.trees:
        cuts, cycles = _cut_groups(g, t.edge_set), _cycle_groups(g, t.edge_set)
        for tag, groups in (("cut", cuts), ("cycle", cycles)):
            for keys in groups:
                members = frozenset(map(index.__getitem__, keys))
                found[tag, members] = CliqueClass(members, tag, len(members))
    return sorted(found.values(), key=lambda c: (c.tag, sorted(c.members)))


def product_of_block_stags(g, max_trees=DEFAULT_MAX_TREES):
    """Iterated Cartesian product of Aux(B) over the blocks B of g."""
    if not is_connected(g):
        raise Disconnected("block product needs a connected graph")
    blocks = block_decomposition(g).blocks
    if not blocks:
        return StagGraph(Graph([0], []), None, None)
    stags = [build_stag(b, max_trees).graph for b in blocks]
    return StagGraph(reduce(cartesian_product, stags), None, None)


# -- parameters ---------------------------------------------------------------------


def _positions(g):
    """Neighbour lists of g over its vertex positions."""
    idx = {v: k for k, v in enumerate(g.vertices)}
    return [[idx[w] for w in g.adj(v)] for v in g.vertices]


def clique_number(g):
    """Size of a largest clique of g."""
    return _clique_number(_masks(_positions(g)))


def exchange_diameter(s):
    """Largest |T1 - T2| over two spanning trees of s.origin, by the rank
    of E - T per tree that param_report takes (params._exchange_diameter)."""
    return _exchange_diameter(s.origin, s.trees.masks)
