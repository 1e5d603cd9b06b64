"""Simple undirected graphs: parsing, connectivity, blocks, cuts, cycles,
Cartesian products and isomorphism testing.

Vertex ids are integers (dense when parsed; subgraphs inherit host ids).
Edge ids are stable integers assigned at construction and preserved by all
read-only operations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import Acyclic, Disconnected, HasBridge, ParseError, TooLarge


@dataclass(frozen=True)
class Edge:
    eid: int
    u: int
    v: int

    def endpoints(self):
        return (self.u, self.v)

    def other(self, x):
        return self.v if x == self.u else self.u

    @property
    def pair(self):
        return frozenset((self.u, self.v))


class Graph:
    """Immutable simple undirected graph with stable edge ids."""

    __slots__ = ("vertices", "edges", "names", "_adj", "_by_id")

    def __init__(self, vertices, edges, names=None):
        vs = tuple(sorted({int(v) for v in vertices}))
        if not vs:
            raise ValueError("graph must have at least one vertex")
        adj = {v: {} for v in vs}
        by_id = {}
        for eid, u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) touches unknown vertex")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            if eid in by_id:
                raise ValueError(f"duplicate edge id {eid}")
            e = Edge(int(eid), *((u, v) if u < v else (v, u)))
            adj[e.u][e.v] = adj[e.v][e.u] = e.eid
            by_id[e.eid] = e
        self.vertices = vs
        self.edges = tuple(by_id.values())
        if names is None:
            names = {v: str(v) for v in vs}
        self.names = {v: str(names.get(v, v)) for v in vs}
        self._adj = adj
        self._by_id = by_id

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs, vertices=None, names=None):
        """Build a graph from (u, v) pairs; edge ids follow input order."""
        vs = set(vertices) if vertices else set()
        for u, v in pairs:
            vs.add(u)
            vs.add(v)
        return cls(vs, [(i, u, v) for i, (u, v) in enumerate(pairs)], names)

    def subgraph_edges(self, eids, vertices=None):
        """Subgraph keeping the given edge ids (and their endpoints), in
        ascending id order; ids not in the graph are skipped."""
        es = [self._by_id[i] for i in sorted(set(eids)) if i in self._by_id]
        if vertices is None:
            vertices = {x for e in es for x in (e.u, e.v)}
        return Graph(vertices, [(e.eid, e.u, e.v) for e in es], self.names)

    def relabeled(self):
        """Dense relabeling 0..n-1; returns (graph, old->new map)."""
        remap = {v: i for i, v in enumerate(self.vertices)}
        g = Graph(
            range(self.n),
            [(e.eid, remap[e.u], remap[e.v]) for e in self.edges],
            {remap[v]: self.names[v] for v in self.vertices},
        )
        return g, remap

    # -- basic accessors -------------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def edge(self, eid):
        return self._by_id[eid]

    def edge_ids(self):
        return tuple(e.eid for e in self.edges)

    def adj(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj.get(u, ())

    def eid_between(self, u, v):
        return self._adj[u].get(v)

    def incident_eids(self, v):
        return sorted(self._adj[v].values())

    def degree_sequence(self):
        return tuple(sorted(len(self._adj[v]) for v in self.vertices))

    def is_complete(self):
        return self.m == self.n * (self.n - 1) // 2

    def same_labeled(self, other):
        """Equality as labeled graphs (ignoring edge ids and names)."""
        return self.vertices == other.vertices and {e.pair for e in self.edges} == {
            e.pair for e in other.edges
        }

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def complete_graph(k):
    return Graph.from_pairs(list(combinations(range(k), 2)), vertices=range(k))


def cycle_graph(k):
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_pairs([(i, (i + 1) % k) for i in range(k)])


def path_graph(k):
    return Graph.from_pairs([(i, i + 1) for i in range(k - 1)], vertices=range(k))


def single_vertex_graph():
    return Graph([0], [])


# -- parsing and serialization -------------------------------------------------


def parse_graph(text, fmt="edgelist"):
    """Parse EdgeList or JSON input into a Graph.

    EdgeList: one "u v" pair per line, '#' comments and blank lines ignored.
    JSON: {"vertices": [names], "edges": [[u, v], ...]}.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"invalid UTF-8 byte 0x{text[exc.start]:02x}") from exc
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_edgelist(text):
    ids = {}
    pairs = []
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(ln, f"expected two vertex tokens, got {len(tokens)}")
        u, v = tokens
        if u == v:
            raise ParseError(ln, f"self-loop at {u!r}")
        for tok in (u, v):
            if tok not in ids:
                ids[tok] = len(ids)
        pair = frozenset((ids[u], ids[v]))
        if pair in seen:
            raise ParseError(ln, f"duplicate edge {u!r} {v!r}")
        seen.add(pair)
        pairs.append((ids[u], ids[v]))
    if not ids:
        raise ParseError(0, "empty graph")
    return Graph.from_pairs(pairs, vertices=range(len(ids)), names={i: t for t, i in ids.items()})


def _parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(0, "invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ParseError(0, "JSON graph needs 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise ParseError(0, f"JSON '{key}' must be a list")
    names = [str(x) for x in doc["vertices"]]
    if not names:
        raise ParseError(0, "empty graph")
    if len(set(names)) != len(names):
        raise ParseError(0, "duplicate vertex names")
    ids = {t: i for i, t in enumerate(names)}
    pairs = []
    seen = set()
    for k, uv in enumerate(doc["edges"]):
        if not isinstance(uv, list) or len(uv) != 2:
            raise ParseError(k, f"edge {uv!r} is not a pair")
        u, v = str(uv[0]), str(uv[1])
        if u not in ids or v not in ids:
            raise ParseError(k, f"edge {uv!r} references unknown vertex")
        if u == v:
            raise ParseError(k, f"self-loop at {u!r}")
        pair = frozenset((ids[u], ids[v]))
        if pair in seen:
            raise ParseError(k, f"duplicate edge {uv!r}")
        seen.add(pair)
        pairs.append((ids[u], ids[v]))
    return Graph.from_pairs(pairs, vertices=range(len(names)), names={i: t for t, i in ids.items()})


def to_edgelist(g):
    lines = [f"{g.names[e.u]} {g.names[e.v]}" for e in g.edges]
    if not lines:
        lines = [f"# single vertex {g.names[g.vertices[0]]}"]
    return "\n".join(lines) + "\n"


def to_json(g):
    doc = {
        "vertices": [g.names[v] for v in g.vertices],
        "edges": [[g.names[e.u], g.names[e.v]] for e in g.edges],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def to_dot(g):
    idx = {v: i for i, v in enumerate(g.vertices)}
    out = ["graph G {"]
    for v in g.vertices:
        out.append(f'  n{idx[v]} [label="{g.names[v]}"];')
    for e in g.edges:
        out.append(f'  n{idx[e.u]} -- n{idx[e.v]} [label="{e.eid}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# -- connectivity and blocks -----------------------------------------------------


def bfs(g, source, eids=None):
    """Breadth-first tree from source as {vertex: (parent, edge id)} in
    discovery order, the source mapped to (None, None). With eids (a set),
    only those edges are followed."""
    tree = {source: (None, None)}
    order = [source]
    adj = g._adj
    for x in order:
        nbrs = adj[x]
        for y in nbrs:
            if y not in tree and (eids is None or nbrs[y] in eids):
                tree[y] = (x, nbrs[y])
                order.append(y)
    return tree


def is_connected(g):
    return len(bfs(g, g.vertices[0])) == g.n


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs), cut vertices and the
    block-cutpoint tree given as (block index, cut vertex) incidences."""

    blocks: tuple
    cut_vertices: frozenset
    tree_edges: tuple


def block_decomposition(g):
    if not is_connected(g):
        raise Disconnected("block decomposition needs a connected graph")
    root = g.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    timer = 1
    estack = []
    comps = []
    cut = set()
    root_children = 0
    stack = [(root, None, iter(g.incident_eids(root)))]
    while stack:
        v, pe, it = stack[-1]
        descended = False
        for eid in it:
            e = g.edge(eid)
            w = e.other(v)
            if eid == pe:
                continue
            if w not in disc:
                estack.append(eid)
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, eid, iter(g.incident_eids(w))))
                descended = True
                break
            if disc[w] < disc[v]:
                estack.append(eid)
                low[v] = min(low[v], disc[w])
        if descended:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                comp = []
                while True:
                    eid = estack.pop()
                    comp.append(eid)
                    if eid == pe:
                        break
                comps.append(sorted(comp))
                if u == root:
                    root_children += 1
                else:
                    cut.add(u)
    if root_children > 1:
        cut.add(root)
    blocks = tuple(g.subgraph_edges(c) for c in comps)
    tree_edges = tuple(
        (i, v) for i, b in enumerate(blocks) for v in b.vertices if v in cut
    )
    return BlockDecomposition(blocks, frozenset(cut), tree_edges)


def bridges(g):
    """Edge ids of all cut edges (the K2 blocks)."""
    return sorted(b.edges[0].eid for b in block_decomposition(g).blocks if b.m == 1)


def is_two_connected(g):
    if not is_connected(g):
        return False
    if g.n == 1:
        return False
    if g.n == 2:
        return g.m == 1
    return not block_decomposition(g).cut_vertices


def common_cycle_classes(g):
    """Equivalence classes of the lie-on-a-common-cycle edge relation.

    Defined for bridgeless connected graphs; the classes coincide with the
    per-block edge sets.
    """
    if not is_connected(g):
        raise Disconnected("common cycle classes need a connected graph")
    bd = block_decomposition(g)
    for b in bd.blocks:
        if b.m == 1:
            raise HasBridge(b.edges[0].eid)
    classes = [frozenset(e.eid for e in b.edges) for b in bd.blocks]
    return sorted(classes, key=lambda c: min(c))


# -- cuts and cycles ---------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCut:
    edge_ids: frozenset
    sides: tuple


def minimal_edge_cuts(g, max_n=12):
    """All inclusion-minimal edge cuts, by brute force over bipartitions
    whose sides both induce connected subgraphs: a BFS from each side over
    the edges off the cut reaches that whole side."""
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds guard {max_n}")
    if not is_connected(g):
        raise Disconnected("edge cuts need a connected graph")
    if g.n == 1:
        return []
    v0 = g.vertices[0]
    others = g.vertices[1:]
    every = set(g.edge_ids())
    cuts = []
    for mask in range(2 ** len(others) - 1):
        side1 = {v0} | {others[i] for i in range(len(others)) if mask >> i & 1}
        cut = frozenset(e.eid for e in g.edges if (e.u in side1) != (e.v in side1))
        rest = every - cut
        w = next(v for v in others if v not in side1)
        if len(bfs(g, v0, rest)) == len(side1) and len(bfs(g, w, rest)) == g.n - len(side1):
            cuts.append(EdgeCut(cut, (frozenset(side1), frozenset(g.vertices) - side1)))
    return sorted(cuts, key=lambda c: (len(c.edge_ids), sorted(c.edge_ids)))


def circumference(g, max_n=12):
    """Length of a longest simple cycle, by exhaustive path search."""
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds guard {max_n}")
    best = 0

    def extend(start, v, visited, length):
        nonlocal best
        for w in g.adj(v):
            if w == start and length >= 2:
                best = max(best, length + 1)
            elif w > start and w not in visited:
                visited.add(w)
                extend(start, w, visited, length + 1)
                visited.discard(w)

    for s in g.vertices:
        extend(s, s, {s}, 0)
    if best == 0:
        raise Acyclic("graph has no cycle")
    return best


def tree_path_edges(g, eids, a, b):
    """Edge-id sequence of a shortest a..b path in the subgraph on the edge
    set eids: the unique one when eids is a spanning tree."""
    tree = bfs(g, a, eids)
    path = []
    while b != a:
        b, eid = tree[b]
        path.append(eid)
    return path[::-1]


def fundamental_cycle_edges(g, tree_eids, eid):
    """Cycle of tree+e as an ordered edge-id list starting with e."""
    e = g.edge(eid)
    return [eid] + tree_path_edges(g, tree_eids, e.v, e.u)


# -- Cartesian product -------------------------------------------------------------


def cartesian_product(g1, g2):
    """Cartesian product; vertex (u, v) is named from the factor names and
    dense ids follow the (g1, g2) lexicographic vertex order."""
    v1 = g1.vertices
    v2 = g2.vertices
    n2 = len(v2)
    idx = {}
    names = {}
    for i, a in enumerate(v1):
        for j, b in enumerate(v2):
            idx[(a, b)] = i * n2 + j
            names[i * n2 + j] = f"({g1.names[a]},{g2.names[b]})"
    pairs = []
    for a in v1:
        for e in g2.edges:
            pairs.append((idx[(a, e.u)], idx[(a, e.v)]))
    for e in g1.edges:
        for b in v2:
            pairs.append((idx[(e.u, b)], idx[(e.v, b)]))
    return Graph.from_pairs(pairs, vertices=range(len(idx)), names=names)


def product_coordinates(g1, g2):
    """Map from product vertex id (as built by cartesian_product) to the
    (g1 vertex, g2 vertex) pair."""
    n2 = g2.n
    return {
        i * n2 + j: (a, b)
        for i, a in enumerate(g1.vertices)
        for j, b in enumerate(g2.vertices)
    }


# -- isomorphism --------------------------------------------------------------------


def are_isomorphic(g1, g2, max_n=5000):
    """Isomorphism test: colour refinement of the disjoint union by class
    splitting, then a search that matches g1's vertices in a fixed BFS order.

    Returns (True, mapping g1-vertex -> g2-vertex) or (False, None). The
    mapping depends only on the two graphs, so repeated calls agree.
    """
    if g1.n > max_n or g2.n > max_n:
        raise TooLarge(f"isomorphism guard {max_n} exceeded")
    if g1.n != g2.n or g1.m != g2.m:
        return False, None
    if g1.degree_sequence() != g2.degree_sequence():
        return False, None
    n = g1.n
    idx1 = {v: i for i, v in enumerate(g1.vertices)}
    idx2 = {v: n + i for i, v in enumerate(g2.vertices)}
    adj = [[idx1[w] for w in g1.adj(v)] for v in g1.vertices]
    adj += [[idx2[w] for w in g2.adj(v)] for v in g2.vertices]
    colour = _joint_refine(adj, n)
    if colour is None:
        return False, None
    image = _iso_backtrack(adj, n, colour)
    if image is None:
        return False, None
    return True, {v: g2.vertices[image[i] - n] for i, v in enumerate(g1.vertices)}


def _joint_refine(adj, n):
    """Coarsest equitable partition of two n-vertex graphs with the same
    degree sequence, held as one adjacency list (vertices 0..n-1, then
    n..2n-1), as a class id per vertex; None as soon as a class holds
    unequal numbers from each side.

    Classes start as degree classes. A splitter class S splits every class
    by its members' neighbour counts in S. The largest part keeps the class
    id and the worklist status; every other part gets a new id and joins
    the worklist (Paige and Tarjan 1987). Only vertices with a neighbour in
    S are touched, except a remainder smaller than the part that stays, so
    the total work is O((n + m) log n).
    """
    ids = {}
    colour = [ids.setdefault(len(a), len(ids)) for a in adj]
    members = [set() for _ in ids]
    for v, c in enumerate(colour):
        members[c].add(v)
    work = list(range(len(members)))
    while work:
        s = work.pop()
        count = {}
        for x in members[s]:
            for y in adj[x]:
                count[y] = count.get(y, 0) + 1
        touched = {}
        for y, k in count.items():
            touched.setdefault(colour[y], {}).setdefault(k, []).append(y)
        for c, by_count in touched.items():
            parts = [by_count[k] for k in sorted(by_count)]
            rest = len(members[c]) - sum(map(len, parts))
            if rest == 0 and len(parts) == 1:
                continue
            big = max(parts, key=len)
            if rest < len(big):
                parts.remove(big)
                if rest:
                    parts.append([v for v in members[c] if v not in count])
                members[c] = set(big)
            else:
                for part in parts:
                    members[c].difference_update(part)
            for part in parts:
                if 2 * sum(1 for v in part if v < n) != len(part):
                    return None
                d = len(members)
                members.append(set(part))
                for v in part:
                    colour[v] = d
                work.append(d)
    return colour


def _iso_backtrack(adj, n, colour):
    """Image in n..2n-1 of each vertex 0..n-1 under an isomorphism that
    keeps colours, or None (the adjacency list is _joint_refine's).

    The matching order is fixed once: a BFS of the first graph, component
    by component, each rooted at the unplaced vertex of smallest colour
    class, then smallest id. A vertex's candidates are the unused
    neighbours of its BFS parent's image with its colour; a root takes its
    whole class. A candidate c is accepted when the images of the vertex's
    earlier neighbours (back) are all adjacent to c and c has no other
    mapped neighbour: mapped[c] counts them. An explicit stack of
    candidate iterators replaces recursion (Juttner and Madarasi 2018).
    """
    size = Counter(colour)
    pos = [-1] * n
    parent = [None] * n
    order = []
    for r in sorted(range(n), key=lambda v: (size[colour[v]], v)):
        if pos[r] >= 0:
            continue
        k = pos[r] = len(order)
        order.append(r)
        while k < len(order):
            x = order[k]
            k += 1
            for y in adj[x]:
                if pos[y] < 0:
                    pos[y] = len(order)
                    order.append(y)
                    parent[y] = x
    back = [[w for w in adj[v] if pos[w] < pos[v]] for v in order]
    by_colour = {}
    for c in range(n, 2 * n):
        by_colour.setdefault(colour[c], []).append(c)
    linked = [None] * n + [set(a) for a in adj[n:]]
    image = [None] * n
    used = [False] * (2 * n)
    mapped = [0] * (2 * n)

    def candidates(v):
        p = parent[v]
        pool = by_colour[colour[v]] if p is None else adj[image[p]]
        return (c for c in pool if not used[c] and colour[c] == colour[v])

    stack = [candidates(order[0])]
    while stack:
        d = len(stack) - 1
        v = order[d]
        c = image[v]
        if c is not None:
            image[v] = None
            used[c] = False
            for y in adj[c]:
                mapped[y] -= 1
        want = back[d]
        for c in stack[d]:
            if mapped[c] == len(want) and all(image[w] in linked[c] for w in want):
                break
        else:
            stack.pop()
            continue
        image[v] = c
        used[c] = True
        for y in adj[c]:
            mapped[y] += 1
        if d + 1 == n:
            return image
        stack.append(candidates(order[d + 1]))
    return None
