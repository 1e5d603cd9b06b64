"""Simple undirected graphs: parsing, connectivity, blocks, fundamental
cycles, Cartesian products and isomorphism testing.

Vertex ids are integers (dense when parsed; subgraphs inherit host ids).
Edge ids are stable integers assigned at construction and preserved by all
read-only operations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from .errors import Disconnected, HasBridge, ParseError


class Edge(NamedTuple):
    eid: int
    u: int
    v: int

    def endpoints(self):
        return (self.u, self.v)


class Graph:
    """Immutable simple undirected graph, its edges listed by ascending
    stable id: Graph() sorts them after checking them in input order.

    Its structure sits in slots that are None until built: _pairs, the
    (u, v), u < v, of edge k at index k; _edges, the Edge tuples; _adj,
    {v: {w: edge id}}; _by_id, {edge id: Edge}; and _names, a str per
    vertex in vertex order, None if no names were given: each vertex's
    name is then its id. Graph() builds all but _pairs. Graph._trusted,
    which builds the walk's, the parsers' and the generators' graphs,
    holds only _pairs and any names given: m, edge_pairs() and the
    serialisers read the pairs, the first adjacency read builds _adj from
    them, each id its pair's index, with no Edge, and the first read of
    edges builds the Edge tuples and releases the pairs. The first edge()
    builds _by_id, and the first read of names the default names. The
    hot accessors read the slot before they call a builder: on CPython
    3.11 a class with __getattr__, even one that never fires, loses the
    specialised method calls and slot reads that every hot loop makes.
    Copy and pickle keep the slots as they are, built or not."""

    __slots__ = ("vertices", "_names", "_edges", "_pairs", "_adj", "_by_id")

    def __init__(self, vertices, edges, names=None):
        vs = tuple(sorted({int(v) for v in vertices}))
        if not vs:
            raise ValueError("graph must have at least one vertex")
        adj = {v: {} for v in vs}
        by_id = {}
        new = tuple.__new__
        for eid, u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) touches unknown vertex")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            eid = int(eid)
            if eid in by_id:
                raise ValueError(f"duplicate edge id {eid}")
            if u > v:
                u, v = v, u
            adj[u][v] = adj[v][u] = eid
            by_id[eid] = new(Edge, (eid, u, v))
        if names is not None:
            names = {v: str(names.get(v, v)) for v in vs}
            if len(set(names.values())) < len(names):
                name = next(t for t, k in Counter(names.values()).items() if k > 1)
                raise ValueError(f"two vertices are named {name!r}")
        self._set(vs, names, None, tuple(sorted(by_id.values())), adj, by_id)

    def _set(self, vertices, names, pairs, edges, adj=None, by_id=None):
        self.vertices = vertices
        self._names = names
        self._pairs = pairs
        self._edges = edges
        self._adj = adj
        self._by_id = by_id
        return self

    @classmethod
    def _trusted(cls, n, pairs, names=None):
        """Graph on vertices 0..n-1 whose edge k is the k-th (u, v) of pairs,
        without Graph's checks; pairs, sized and re-iterable, is all it
        holds. Each caller guarantees n >= 1, integers 0 <= u < v < n and
        no repeated pair, and tests/test_source_rules.py fails if another
        src/stag module calls it:
        - build_stag: one vertex per tree, and the walk's rows, which hold
          each exchange once, the greater rank second;
        - _parse_edgelist and _parse_json: after every ParseError, a list
          of dense ids, ordered and checked for repeats by a dict, and a
          str name per vertex;
        - the three stag.generators: after their ValueErrors, pairs that
          are ordered and distinct by construction."""
        return object.__new__(cls)._set(tuple(range(n)), names, pairs, None)

    # -- caches ----------------------------------------------------------------

    @property
    def names(self):
        if self._names is None:
            self._names = {v: str(v) for v in self.vertices}
        return self._names

    @property
    def edges(self):
        if self._edges is None:
            new = tuple.__new__
            self._edges = tuple([new(Edge, (k, u, v)) for k, (u, v) in enumerate(self._pairs)])
            self._pairs = None
        return self._edges

    def _adjacency(self):
        """Build _adj from the pairs while they are held, else from edges."""
        self._adj = adj = {v: {} for v in self.vertices}
        if self._pairs is None:
            for k, u, v in self._edges:
                adj[u][v] = adj[v][u] = k
        else:
            for k, (u, v) in enumerate(self._pairs):
                adj[u][v] = adj[v][u] = k
        return adj

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs, vertices=None, names=None):
        """Build a graph from (u, v) pairs; edge ids follow input order."""
        vs = set(vertices) if vertices else set()
        for u, v in pairs:
            vs.add(u)
            vs.add(v)
        return cls(vs, [(i, u, v) for i, (u, v) in enumerate(pairs)], names)

    # -- basic accessors -------------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self._edges if self._pairs is None else self._pairs)

    def edge(self, eid):
        if self._by_id is None:
            self._by_id = {e.eid: e for e in self.edges}
        return self._by_id[eid]

    def edge_ids(self):
        return tuple(e.eid for e in self.edges)

    def edge_pairs(self):
        """(u, v), u < v, of each edge; zip reuses its tuple if unpacked at once."""
        if self._pairs is None:
            es = self._edges
            return zip(map(itemgetter(1), es), map(itemgetter(2), es))
        return iter(self._pairs)

    def adj(self, v):
        return (self._adj or self._adjacency())[v]

    def degree(self, v):
        return len((self._adj or self._adjacency())[v])

    def has_edge(self, u, v):
        return v in (self._adj or self._adjacency()).get(u, ())

    def eid_between(self, u, v):
        return (self._adj or self._adjacency())[u].get(v)

    def degree_sequence(self):
        return tuple(sorted(map(len, (self._adj or self._adjacency()).values())))

    def same_labeled(self, other):
        """Equality as labeled graphs (ignoring edge ids and names)."""
        return self.vertices == other.vertices and set(self.edge_pairs()) == set(other.edge_pairs())

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

    EdgeList: a line "u v" is an edge and a line "v" names a vertex; a line
    whose first token starts with '#' is a comment, as is a blank line, and
    no other token may. JSON: {"vertices": [names], "edges": [[u, v], ...]}.
    Either may start with one UTF-8 byte-order mark, which is dropped.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"invalid UTF-8 byte 0x{text[exc.start]:02x}") from exc
    text = text.removeprefix("\ufeff")
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_edgelist(text):
    ids = {}
    pairs = {}  # insertion-ordered, so edge ids follow the input
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) == 1:
            ids.setdefault(tokens[0], len(ids))
            continue
        if len(tokens) != 2:
            raise ParseError(ln, f"expected one or two vertex tokens, got {len(tokens)}")
        u, v = tokens
        if u == v:
            raise ParseError(ln, f"self-loop at {u!r}")
        a = ids.setdefault(u, len(ids))
        b = ids.setdefault(v, len(ids))
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            raise ParseError(ln, f"duplicate edge {u!r} {v!r}")
        pairs[pair] = None
    if not ids:
        raise ParseError(0, "empty graph")
    if "\n#" in "\n" + "\n".join(ids):  # a second token: the first would start a comment
        ln, v = next((ln, t[1]) for ln, t in enumerate(map(str.split, text.splitlines()), 1)
                     if len(t) == 2 and t[1][0] == "#" and t[0][0] != "#")
        raise ParseError(ln, f"vertex token {v!r} starts with '#', which marks a comment")
    return Graph._trusted(len(ids), list(pairs), dict(enumerate(ids)))


def _parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(0, "invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer longer than int's digit limit
        raise ParseError(0, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ParseError(0, "JSON graph needs 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise ParseError(0, f"JSON '{key}' must be a list")
    names = [str(x) for x in doc["vertices"]]
    if not names:
        raise ParseError(0, "empty graph")
    ids = {t: i for i, t in enumerate(names)}
    if len(ids) != len(names):
        raise ParseError(0, "duplicate vertex names")
    pairs = {}
    for k, uv in enumerate(doc["edges"]):
        if not isinstance(uv, list) or len(uv) != 2:
            raise ParseError(k, f"edge {uv!r} is not a pair")
        u, v = str(uv[0]), str(uv[1])
        a = ids.get(u)
        b = ids.get(v)
        if a is None or b is None:
            raise ParseError(k, f"edge {uv!r} references unknown vertex")
        if a == b:
            raise ParseError(k, f"self-loop at {u!r}")
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            raise ParseError(k, f"duplicate edge {uv!r}")
        pairs[pair] = None
    return Graph._trusted(len(names), list(pairs), dict(enumerate(names)))


def to_edgelist(g):
    names = g._names  # None: the ids, each one token that never starts with '#'
    if names is not None:
        joined = "\n".join(names.values())  # each name one token, and no comment
        if joined.split() != list(names.values()) or "\n#" in "\n" + joined:
            v = next(v for v, t in names.items() if t.split() != [t] or t[0] == "#")
            raise ValueError(f"vertex {v} is named {names[v]!r}, which an edge list cannot hold")
    if not g.m:
        return "\n".join(map(str, g.vertices) if names is None else names.values()) + "\n"
    pairs = g.edge_pairs()
    chunks = (islice(pairs, 4096) for _ in range(0, g.m, 4096))
    if names is None:
        return "".join(["".join([f"{u} {v}\n" for u, v in c]) for c in chunks])
    return "".join(["".join([f"{names[u]} {names[v]}\n" for u, v in c]) for c in chunks])


def to_json(g):
    names = g._names
    if names is None:
        return _json_text(g, {v: f'"{v}"' for v in g.vertices})
    return _json_text(g, {v: encode_basestring_ascii(name) for v, name in names.items()})


def _json_text(g, labels, edges=None, trees=None):
    """g as json.dumps(sort_keys=True, separators=(",", ":")) writes it, and a
    newline: labels[v] is vertex v's JSON string, in vertex order, edges the
    text inside the edge list if the caller has written it, and trees, if
    given, the JSON text of a "trees" key. Otherwise the edges are joined
    4,096 at a time to keep few per-edge strings alive."""
    if edges is None:
        pairs = g.edge_pairs()
        edges = ",".join([",".join([f"[{labels[u]},{labels[v]}]" for u, v in islice(pairs, 4096)])
                          for _ in range(0, g.m, 4096)])
    more = "" if trees is None else f'"trees":{trees},'
    return f'{{"edges":[{edges}],{more}"vertices":[{",".join(labels.values())}]}}\n'


def to_dot(g):
    """DOT text, each vertex name's \\ and " escaped in its quoted label."""
    names = g._names
    idx = {v: i for i, v in enumerate(g.vertices)}
    out = ["graph G {"]
    for v, i in idx.items():
        label = v if names is None else names[v].replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  n{i} [label="{label}"];')
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
    adj = g._adj or g._adjacency()
    for x in order:
        nbrs = adj[x]
        for y in nbrs:
            if y not in tree and (eids is None or nbrs[y] in eids):
                tree[y] = (x, nbrs[y])
                order.append(y)
    return tree


def _components(g, eids=None):
    """Vertex -> component id (its first vertex) over the subgraph
    restricted to eids, or over all of g."""
    allowed = None if eids is None else set(eids)
    comp = {}
    for s in g.vertices:
        if s not in comp:
            comp.update(dict.fromkeys(bfs(g, s, allowed), s))
    return comp


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; True if they were two sets."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.count -= 1
        return True


def is_connected(g):
    return len(bfs(g, g.vertices[0])) == g.n


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs), cut vertices and the
    block-cutpoint tree given as (block index, cut vertex) incidences."""

    blocks: tuple
    cut_vertices: frozenset
    tree_edges: tuple


def _blocks(g, needs="block decomposition needs"):
    """The blocks of g, each a list of g's own Edge tuples, and its cut
    vertices, from one iterative DFS (Hopcroft and Tarjan 1973). The DFS
    starts at vertices[0] and takes each vertex's edges by ascending id,
    from (neighbour, Edge) incidence lists filled in one pass over the
    edges; they and the discovery numbers are lists when the ids are
    0..n-1, dicts otherwise. The current frame (vertex, discovery
    number, tree edge, incidence iterator, and where that tree edge sits
    on the edge stack) is held in locals: a descent pushes the parent's
    frame and a return pops it. A block is the slice of the edge stack
    from the child's tree edge, and blocks come in the order the DFS
    completes them. It reads only g's vertices and edges, so g gets no
    cache. Raises Disconnected, "<needs> a connected graph", if it misses
    a vertex."""
    vs = g.vertices
    n = len(vs)
    if vs[-1] == n - 1 and vs[0] == 0:  # ids 0..n-1: lists index faster than dicts
        inc = [[] for _ in vs]
        disc = [-1] * n
    else:
        inc = {v: [] for v in vs}
        disc = dict.fromkeys(vs, -1)
    for e in g.edges:
        inc[e[1]].append((e[2], e))
        inc[e[2]].append((e[1], e))
    v = root = vs[0]
    disc[root] = 0
    low = [0]
    estack = []
    blocks = []
    cut = set()
    root_children = 0
    stack = []
    dv, pe, it, at = 0, None, iter(inc[v]), 0
    while True:
        for w, e in it:
            dw = disc[w]
            if dw < 0:
                stack.append((v, dv, pe, it, at))
                disc[w] = dv = len(low)
                low.append(dv)
                v, pe, it, at = w, e, iter(inc[w]), len(estack)
                estack.append(e)
                break
            if dw < dv and e is not pe:
                estack.append(e)
                if dw < low[dv]:
                    low[dv] = dw
        else:
            if not stack:
                break
            lv, top = low[dv], at
            v, dv, pe, it, at = stack.pop()
            if lv < low[dv]:
                low[dv] = lv
            elif lv >= dv:
                blocks.append(estack[top:])
                del estack[top:]
                if dv:
                    cut.add(v)
                else:
                    root_children += 1
    if len(low) != n:
        raise Disconnected(f"{needs} a connected graph")
    if root_children > 1:
        cut.add(root)
    return blocks, cut


def block_decomposition(g):
    """Blocks, cut vertices and block-cutpoint tree of a connected graph.

    Block i is the subgraph on its edges, ascending ids, and their
    endpoints, built from _blocks's Edge tuples: it holds g's names of its
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
    for i, es in enumerate(found):
        es.sort()
        _, us, ws = zip(*es)
        vs = tuple(sorted({*us, *ws}))
        sub = None if names is None else {v: names[v] for v in vs}
        tree_edges += [(i, v) for v in vs if v in cut]
        blocks.append(object.__new__(Graph)._set(vs, sub, None, tuple(es)))
    return BlockDecomposition(tuple(blocks), frozenset(cut), tuple(tree_edges))


def bridges(g):
    """Edge ids of all cut edges (the K2 blocks)."""
    return sorted(b[0].eid for b in _blocks(g)[0] if len(b) == 1)


def is_two_connected(g):
    if g.n <= 2:
        return g.m == 1
    try:
        return not _blocks(g)[1]
    except Disconnected:
        return False


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


# -- fundamental cycles ------------------------------------------------------------


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


# -- Cartesian product -------------------------------------------------------------


def cartesian_product(g1, g2):
    """Cartesian product; vertex (u, v) is named from the factor names and
    dense ids follow the (g1, g2) lexicographic vertex order."""
    p1 = {a: i for i, a in enumerate(g1.vertices)}
    p2 = {b: j for j, b in enumerate(g2.vertices)}
    n2 = len(p2)
    names = [f"({s},{t})" for s in g1.names.values() for t in g2.names.values()]
    pairs = [(i * n2 + p2[e.u], i * n2 + p2[e.v]) for i in range(len(p1)) for e in g2.edges]
    pairs += [(p1[e.u] * n2 + j, p1[e.v] * n2 + j) for e in g1.edges for j in range(n2)]
    return Graph.from_pairs(pairs, vertices=range(len(names)), names=dict(enumerate(names)))


# -- isomorphism --------------------------------------------------------------------


def are_isomorphic(g1, g2):
    """Isomorphism test: degree sequences and component sizes first, then
    colour refinement of the disjoint union by class splitting, then a
    search that matches g1's vertices in a fixed BFS order. Refinement
    gives a cycle and two cycles of half its length one colour, and the
    search would try every vertex as the image of g1's first, each at
    linear cost.

    Returns (True, mapping g1-vertex -> g2-vertex) or (False, None). The
    mapping depends only on the two graphs, so repeated calls agree.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return False, None
    if g1.degree_sequence() != g2.degree_sequence():
        return False, None
    sizes = [sorted(Counter(_components(h).values()).values()) for h in (g1, g2)]
    if sizes[0] != sizes[1]:
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
