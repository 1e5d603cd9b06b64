"""Spanning tree auxiliary graph (STAG) construction and serialisation."""

from collections import namedtuple

from .graph_core import Graph, _json_text
from .spanning_trees import DEFAULT_MAX_TREES, _labels, _Rows, _Trees, _walk


class StagGraph(namedtuple("StagGraph", "graph trees origin")):
    """Auxiliary graph whose vertices are spanning trees of origin.

    trees[v] is the SpanningTree of vertex v: a _Trees from build_stag, a
    tuple from the oracle. Only callers leave trees/origin None, for an Aux
    not built from a known graph (the tests and their block product)."""

    __slots__ = ()

    @property
    def annotated(self):
        return self.trees is not None


def build_stag(g, max_trees=DEFAULT_MAX_TREES):
    """Aux(g): one vertex per spanning tree, edges via unit transformations.

    One exchange walk finds the trees and their exchanges together: the
    neighbours of T are T - f + e for each non-tree edge e and each tree
    edge f on its fundamental cycle. The Kirchhoff count is the size guard
    and the completeness check. The walk emits the trees by canonical key
    and the edges by vertex pair, already in that order, so builds are
    reproducible and nothing is sorted after it. The graph holds only the
    walk's rows (Graph._trusted): stag_to_json and stag_to_dot stream them,
    the first read of its adjacency builds it from the rows, and only the
    first read of its edges releases them. The trees are only the walk's
    masks (a _Trees): stag_to_json and stag_to_dot write their text from
    the masks, and the first read of a tree decodes them all into
    SpanningTree objects."""
    masks, pairs = _walk(g, max_trees)
    return StagGraph(Graph._trusted(len(masks), pairs), _Trees(g, masks), g)


def stag_to_json(s):
    """Compact JSON with sorted keys. Vertices are ints, so their quoted
    decimal ids need no escaping. While the graph still holds the walk's
    rows, the edges are written one row, vertex u's greater neighbours in
    order, at a time: '["u",' and the row's labels joined by '],["u",'.
    Otherwise they come from the graph's pairs; the bytes are the same.
    The trees are their _labels, each in brackets: the same bytes as
    json.dumps of the key tuples, and for a _Trees written from its masks."""
    trees = "null"
    if s.annotated:
        labels = _labels(s.trees)
        trees = "[[" + "],[".join(labels) + "]]" if labels else "[]"
    labels = {v: f'"{v}"' for v in s.graph.vertices}
    rows = s.graph._pairs
    edges = None
    if isinstance(rows, _Rows):
        edges = ",".join([
            f"[{labels[u]}," + f"],[{labels[u]},".join(map(labels.__getitem__, row)) + "]"
            for u, row in enumerate(rows.rows) if row
        ])
    return _json_text(s.graph, labels, edges, trees=trees)


def stag_to_dot(s):
    """Graphviz text; an annotated vertex's tooltip is its tree, "t: " and
    the edge ids joined by commas, read from the masks of a _Trees."""
    out = ["graph Aux {"]
    tips = [f' tooltip="t: {k}"' for k in _labels(s.trees)] if s.annotated else [""] * s.graph.n
    for v, tip in zip(s.graph.vertices, tips):
        out.append(f'  n{v} [label="{v}"{tip}];')
    for u, v in s.graph.edge_pairs():
        out.append(f"  n{u} -- n{v};")
    out.append("}")
    return "\n".join(out) + "\n"
