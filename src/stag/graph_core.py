"""Simple undirected graphs: parsing, connectivity, blocks, cuts, cycles,
Cartesian products and isomorphism testing.

Vertex ids are integers (dense when parsed; subgraphs inherit host ids).
Edge ids are stable integers assigned at construction and preserved by all
read-only operations.
"""

from __future__ import annotations

import json
import sys
from collections import deque
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
        vset = set(vs)
        es = []
        seen_ids = set()
        seen_pairs = set()
        for eid, u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) touches unknown vertex")
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise ValueError(f"duplicate edge ({u},{v})")
            if eid in seen_ids:
                raise ValueError(f"duplicate edge id {eid}")
            seen_ids.add(eid)
            seen_pairs.add(pair)
            es.append(Edge(int(eid), *pair))
        self.vertices = vs
        self.edges = tuple(es)
        if names is None:
            names = {v: str(v) for v in vs}
        self.names = {v: str(names.get(v, v)) for v in vs}
        adj = {v: {} for v in vs}
        for e in es:
            adj[e.u][e.v] = e.eid
            adj[e.v][e.u] = e.eid
        self._adj = adj
        self._by_id = {e.eid: e for e in es}

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
        """Subgraph keeping the given edge ids (and their endpoints)."""
        eids = set(eids)
        es = [e for e in self.edges if e.eid in eids]
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


def is_connected(g):
    seen = {g.vertices[0]}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in g.adj(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == g.n


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
    whose sides both induce connected subgraphs."""
    if g.n > max_n:
        raise TooLarge(f"n={g.n} exceeds guard {max_n}")
    if not is_connected(g):
        raise Disconnected("edge cuts need a connected graph")
    if g.n == 1:
        return []
    v0 = g.vertices[0]
    others = g.vertices[1:]
    found = {}
    for mask in range(2 ** len(others) - 1):
        side1 = {v0} | {others[i] for i in range(len(others)) if mask >> i & 1}
        side2 = set(g.vertices) - side1
        if not _induced_connected(g, side1) or not _induced_connected(g, side2):
            continue
        cut = frozenset(e.eid for e in g.edges if (e.u in side1) != (e.v in side1))
        if cut not in found:
            found[cut] = EdgeCut(cut, (frozenset(side1), frozenset(side2)))
    return sorted(found.values(), key=lambda c: (len(c.edge_ids), sorted(c.edge_ids)))


def _induced_connected(g, vset):
    if not vset:
        return False
    start = next(iter(vset))
    seen = {start}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in g.adj(x):
            if y in vset and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(vset)


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


def tree_path_edges(g, tree_eids, a, b):
    """Edge-id sequence of the unique a..b path in the spanning tree."""
    tadj = {v: [] for v in g.vertices}
    for eid in tree_eids:
        e = g.edge(eid)
        tadj[e.u].append((e.v, eid))
        tadj[e.v].append((e.u, eid))
    parent = {a: (None, None)}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y, eid in tadj[x]:
            if y not in parent:
                parent[y] = (x, eid)
                queue.append(y)
    path = []
    x = b
    while x != a:
        px, eid = parent[x]
        path.append(eid)
        x = px
    path.reverse()
    return path


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
    """Isomorphism test via color refinement plus backtracking.

    Returns (True, mapping g1-vertex -> g2-vertex) or (False, None).
    """
    if g1.n > max_n or g2.n > max_n:
        raise TooLarge(f"isomorphism guard {max_n} exceeded")
    if g1.n != g2.n or g1.m != g2.m:
        return False, None
    if g1.degree_sequence() != g2.degree_sequence():
        return False, None
    c1, c2 = _joint_refine(g1, g2)
    if c1 is None:
        return False, None
    mapping = _iso_backtrack(g1, g2, c1, c2)
    if mapping is None:
        return False, None
    return True, mapping


def _joint_refine(g1, g2):
    colors1 = {v: g1.degree(v) for v in g1.vertices}
    colors2 = {v: g2.degree(v) for v in g2.vertices}
    ncolors = len(set(colors1.values()) | set(colors2.values()))
    while True:
        sig1 = {
            v: (colors1[v], tuple(sorted(colors1[w] for w in g1.adj(v))))
            for v in g1.vertices
        }
        sig2 = {
            v: (colors2[v], tuple(sorted(colors2[w] for w in g2.adj(v))))
            for v in g2.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig1.values()) | set(sig2.values())))}
        colors1 = {v: palette[sig1[v]] for v in g1.vertices}
        colors2 = {v: palette[sig2[v]] for v in g2.vertices}
        hist1 = sorted(colors1.values())
        hist2 = sorted(colors2.values())
        if hist1 != hist2:
            return None, None
        if len(palette) == ncolors:
            return colors1, colors2
        ncolors = len(palette)


def _iso_backtrack(g1, g2, colors1, colors2):
    by_color = {}
    for v, c in colors2.items():
        by_color.setdefault(c, []).append(v)
    class_size = {c: len(vs) for c, vs in by_color.items()}
    order = sorted(g1.vertices, key=lambda v: (class_size[colors1[v]], colors1[v], v))
    n = g1.n
    mapping = {}
    used = set()

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n + 100))

    def place(i):
        if i == n:
            return True
        # prefer vertices with most mapped neighbors (more constrained)
        v = max(
            (x for x in order if x not in mapping),
            key=lambda x: (sum(1 for w in g1.adj(x) if w in mapping), -class_size[colors1[x]]),
        )
        want = {mapping[w] for w in g1.adj(v) if w in mapping}
        for cand in by_color[colors1[v]]:
            if cand in used:
                continue
            have = {w for w in g2.adj(cand) if w in used}
            if have != want:
                continue
            mapping[v] = cand
            used.add(cand)
            if place(i + 1):
                return True
            del mapping[v]
            used.discard(cand)
        return False

    if place(0):
        return dict(mapping)
    return None
