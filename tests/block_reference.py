"""The block DFS and block_decomposition of stag.graph_core as they stood
before the DFS kept its frame in local variables, copied verbatim. Tests
compare the library's blocks with these, object for object, so any
change of block order, edge order or cut set shows."""

from operator import itemgetter

from stag.errors import Disconnected
from stag.graph_core import BlockDecomposition, Graph


def _blocks(g, needs="block decomposition needs"):
    """The blocks of g, each a list of g's own Edge tuples, and its cut
    vertices, from one iterative DFS (Hopcroft and Tarjan 1973). The DFS
    starts at vertices[0] and takes each vertex's edges by ascending id,
    from incidence lists filled in one pass over the edges sorted by id. A
    frame keeps its vertex's discovery number, which indexes low, and
    where its tree edge sits on the edge stack, so a block is the slice of
    the stack from there. Blocks come in the order the DFS completes them.
    It reads only g's vertices and edges, so g gets no cache. Raises
    Disconnected, "<needs> a connected graph", if it misses a vertex."""
    inc = {v: [] for v in g.vertices}
    for e in sorted(g.edges):
        inc[e[1]].append((e[2], e))
        inc[e[2]].append((e[1], e))
    root = g.vertices[0]
    disc = {root: 0}
    low = [0] * g.n
    estack = []
    blocks = []
    cut = set()
    root_children = 0
    stack = [(root, 0, None, iter(inc[root]), 0)]
    while stack:
        v, dv, pe, it, at = stack[-1]
        for w, e in it:
            dw = disc.get(w)
            if dw is None:
                disc[w] = dw = low[dw] = len(disc)
                stack.append((w, dw, e, iter(inc[w]), len(estack)))
                estack.append(e)
                break
            if dw < dv and e is not pe:
                estack.append(e)
                if dw < low[dv]:
                    low[dv] = dw
        else:
            stack.pop()
            if not stack:
                break
            u, du = stack[-1][:2]
            if low[dv] < low[du]:
                low[du] = low[dv]
            if low[dv] >= du:
                blocks.append(estack[at:])
                del estack[at:]
                if du == 0:
                    root_children += 1
                else:
                    cut.add(u)
    if len(disc) != g.n:
        raise Disconnected(f"{needs} a connected graph")
    if root_children > 1:
        cut.add(root)
    return blocks, cut


def block_decomposition(g):
    """Blocks, cut vertices and block-cutpoint tree of a connected graph.

    Block i is the subgraph on its edges, ascending ids, and their
    endpoints, built from the DFS's Edge tuples: it holds g's names of its
    vertices, none if g has none, and builds its adjacency the first time
    something reads it, so a caller that reads only vertices, edges or
    names never pays for it. g gets no cache. Blocks come in the order a
    depth-first search from vertices[0], taking each vertex's edges by
    ascending id, completes them. tree_edges lists (i, v) for each block
    i in that order and each cut vertex v of block i in ascending order.
    An isolated vertex has no blocks. Raises Disconnected if g is not
    connected."""
    found, cut = _blocks(g)
    names = g._names
    blocks = []
    tree_edges = []
    for es in found:
        es.sort()
        vs = tuple(sorted({*map(itemgetter(1), es), *map(itemgetter(2), es)}))
        sub = None if names is None else {v: names[v] for v in vs}
        tree_edges += [(len(blocks), v) for v in vs if v in cut]
        blocks.append(object.__new__(Graph)._set(vs, sub, None, tuple(es)))
    return BlockDecomposition(tuple(blocks), frozenset(cut), tuple(tree_edges))
