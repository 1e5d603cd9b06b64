"""Spanning tree auxiliary graph (STAG) construction and its ground-truth
neighborhood/clique structure."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import Unannotated
from .graph_core import Graph, bfs, fundamental_cycle_edges
from .spanning_trees import DEFAULT_MAX_TREES, SpanningTree, _exchange_walk


@dataclass(frozen=True)
class StagGraph:
    """Auxiliary graph whose vertices are spanning trees of origin.

    trees/origin are None when the stag was not built from a known graph
    (recognition inputs, block products)."""

    graph: Graph
    trees: tuple | None
    origin: Graph | None

    @property
    def annotated(self):
        return self.trees is not None


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


def build_stag(g, max_trees=DEFAULT_MAX_TREES):
    """Aux(g): one vertex per spanning tree, edges via unit transformations.

    One exchange walk finds the trees and their exchanges together: the
    neighbours of T are T - f + e for each non-tree edge e and each tree
    edge f on its fundamental cycle. The Kirchhoff count is the size guard
    and the completeness check. Vertices are ordered by tree canonical key
    and edges by vertex pair, so builds are reproducible."""
    keys, pairs, _ = _exchange_walk(g, max_trees)
    trees = tuple(SpanningTree(g, k) for k in keys)
    graph = Graph(range(len(trees)), ((k, u, v) for k, (u, v) in enumerate(pairs)))
    return StagGraph(graph, trees, g)


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
        tset = t.edge_set
        for f in t.key:
            comp = bfs(g, g.edge(f).u, tset - {f})
            cut_eids = [
                e.eid for e in g.edges if (e.u in comp) != (e.v in comp)
            ]
            members = frozenset(
                index[tuple(sorted((tset - {f}) | {e}))] for e in cut_eids
            )
            found[("cut", members)] = CliqueClass(members, "cut", len(members))
        for e in g.edges:
            if e.eid in tset:
                continue
            cyc = fundamental_cycle_edges(g, tset, e.eid)
            base = tset - set(cyc)
            members = frozenset(
                index[tuple(sorted(base | (set(cyc) - {f})))] for f in cyc
            )
            found[("cycle", members)] = CliqueClass(members, "cycle", len(members))
    return sorted(found.values(), key=lambda c: (c.tag, sorted(c.members)))


def stag_to_json(s):
    doc = {
        "vertices": [str(v) for v in s.graph.vertices],
        "edges": [[str(e.u), str(e.v)] for e in s.graph.edges],
        "trees": [list(t.key) for t in s.trees] if s.annotated else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def stag_to_dot(s):
    out = ["graph Aux {"]
    for v in s.graph.vertices:
        if s.annotated:
            label = ",".join(map(str, s.trees[v].key))
            out.append(f'  n{v} [label="{v}" tooltip="t: {label}"];')
        else:
            out.append(f'  n{v} [label="{v}"];')
    for e in s.graph.edges:
        out.append(f"  n{e.u} -- n{e.v};")
    out.append("}")
    return "\n".join(out) + "\n"
