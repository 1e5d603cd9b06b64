"""Parameter relations between a graph and its spanning tree auxiliary graph:
degree bounds, diameter bound and the clique-number identity."""

from collections import Counter, namedtuple
from math import isqrt

from .errors import Disconnected
from .graph_core import bfs, bridges
from .spanning_trees import DEFAULT_MAX_TREES, _walk


class ParamReport(namedtuple("ParamReport", "n m aux_vertices delta_aux Delta_aux diam_aux "
                             "omega_aux circumference_g max_minimal_cut_g verdicts")):
    """The sizes and parameters of g and Aux(g) that param_report reads;
    circumference_g is None when g is acyclic, and verdicts maps each
    relation's name to (ok, slack): ok is None when the relation is
    skipped and slack None when it has none."""

    __slots__ = ()


def _neighbours(n, pairs):
    """Neighbour lists of the graph on vertices 0..n-1 with edges pairs."""
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _masks(nbrs):
    """Each vertex's neighbours as an int bitmask over positions."""
    return [sum(1 << w for w in ws) for ws in nbrs]


def _all_pairs_diameter(nbrs):
    """Largest eccentricity of the graph with neighbour lists nbrs, by a
    BFS from every vertex at once: reach[k] is the bitmask of vertices
    within d hops of vertex k, and each level ORs in the neighbours'
    masks until every mask is full."""
    n = len(nbrs)
    reach = [1 << k for k in range(n)]
    full = (1 << n) - 1
    diam = 0
    while pending := [k for k in range(n) if reach[k] != full]:
        nxt = reach[:]
        for k in pending:
            for w in nbrs[k]:
                nxt[k] |= reach[w]
        if nxt == reach:
            raise Disconnected("diameter needs a connected graph")
        reach = nxt
        diam += 1
    return diam


def _clique_number(adj):
    """Size of a largest clique of the graph whose vertex k has the
    neighbour mask adj[k], by branch and bound (Carraghan & Pardalos
    1990): each candidate set P is taken lowest vertex first, the clique
    grown by it and P cut to its neighbours, and the vertex dropped from P
    once its branch is done. A branch whose clique plus all of P cannot
    beat the best stops. The stack holds each ancestor's P, so the clique's
    size is its length, and a long cycle's Aux, a clique of every tree,
    needs no recursion."""
    best, p = 0, (1 << len(adj)) - 1
    stack = []
    while True:
        while p and len(stack) + p.bit_count() > best:
            low = p & -p
            stack.append(p ^ low)
            p &= adj[low.bit_length() - 1]
            if not p:
                best = max(best, len(stack))
        if not stack:
            return best
        p = stack.pop()


def _exchange_diameter(g):
    """Largest |T1 - T2| over two spanning trees of g.

    That is max |T1 ∪ T2| - (n - 1), and as every forest of a connected
    graph extends to a spanning tree, max |T1 ∪ T2| is the largest union of
    two forests: the rank of the union of the cycle matroid with itself
    (Nash-Williams 1964; Edmonds 1965). Edges are offered one at a time and
    kept when a shortest augmenting path exists (matroid partition): from an
    edge x, forest i is a sink if F_i + x is a forest; otherwise x may enter
    F_i in place of any y on the cycle of F_i + x, and y must then move to
    the other forest. An edge refused once stays refused, as the union of
    the two forests only grows. A bridge lies in every tree, a coloop of
    the union too: it adds one to the rank and is never offered.
    """
    cut = set(bridges(g))
    home = {}  # edge id -> the forest (0 or 1) holding it
    for e in g.edges:
        if e.eid not in cut:
            _augment(g, home, e.eid)
    return len(home) + len(cut) - (g.n - 1)


def _augment(g, home, eid):
    """Add eid to the two forests in home along a shortest augmenting path,
    found by a BFS over edges; leave home as it is when there is none."""
    forests = [{f for f, h in home.items() if h == i} for i in (0, 1)]
    came_from = {eid: None}
    queue = [eid]
    for x in queue:
        u, v = g.edge(x).endpoints()
        for i in (0, 1):
            if home.get(x) == i:
                continue
            tree = bfs(g, u, forests[i])
            if v not in tree:
                while x is not None:
                    home[x], i = i, home.get(x)
                    x = came_from[x]
                return
            w = v
            while w != u:
                w, y = tree[w]
                if y not in came_from:
                    came_from[y] = x
                    queue.append(y)


def _clique_order(edges):
    """k, for a clique with k(k - 1)/2 edges."""
    return (1 + isqrt(8 * edges + 1)) // 2


def param_report(g, max_trees=DEFAULT_MAX_TREES):
    """Evaluate the degree, diameter and clique-number relations on Aux(g).

    The circumference and the largest bond are read off Aux(g), so the tree
    count is the only bound. Each cycle C is the fundamental cycle of a
    chord e of some tree T (extend the path C - e), and the |C| trees in
    T + e, T + e - f for f on C, are pairwise adjacent: |C|(|C| - 1)/2 Aux
    edges have the union T + e. Each bond D is the fundamental cut of an
    edge f of some T (join trees of its two connected sides by f), and the
    |D| trees T - f + d, d in D, are pairwise adjacent: |D|(|D| - 1)/2 Aux
    edges meet in T - f. An Aux edge's union is a tree plus a chord and its
    meet a tree less an edge, so the largest groups by union and by meet
    give the two (Maurer 1973). The tests check both against the
    brute-force circumference and minimal_edge_cuts of tests/oracles.py. The unions and meets
    are taken on the walk's tree masks; the degrees, the diameter and the
    clique number of Aux(g) on neighbour lists and masks built once from
    the walk's pairs."""
    masks, pairs = _walk(g, max_trees)
    unions = Counter(masks[u] | masks[v] for u, v in pairs)
    meets = Counter(masks[u] & masks[v] for u, v in pairs)
    nbrs = _neighbours(len(masks), pairs)
    n, m = g.n, g.m
    degs = list(map(len, nbrs))
    delta, big_delta = min(degs), max(degs)
    diam = _all_pairs_diameter(nbrs)
    omega = _clique_number(_masks(nbrs))
    circ = _clique_order(max(unions.values())) if unions else None
    max_cut = _clique_order(max(meets.values(), default=0)) if m else 0
    cyclomatic = m - n + 1
    verdicts = {
        "max_degree_bound": (
            big_delta <= (n - 1) * cyclomatic,
            (n - 1) * cyclomatic - big_delta,
        ),
        "min_degree_bound": (delta >= 2 * cyclomatic, delta - 2 * cyclomatic),
        "diameter_bound": (diam <= n - 1, (n - 1) - diam),
        "diameter_matches_exchange": (diam == _exchange_diameter(g), None),
    }
    if circ is None:
        verdicts["clique_number"] = (None, None)  # acyclic: Aux is K1, skipped
    else:
        verdicts["clique_number"] = (omega == max(circ, max_cut), None)
    return ParamReport(
        n=n,
        m=m,
        aux_vertices=len(masks),
        delta_aux=delta,
        Delta_aux=big_delta,
        diam_aux=diam,
        omega_aux=omega,
        circumference_g=circ,
        max_minimal_cut_g=max_cut,
        verdicts=verdicts,
    )


def report_to_json(r):
    import json

    doc = {
        "n": r.n,
        "m": r.m,
        "aux_vertices": r.aux_vertices,
        "min_degree_aux": r.delta_aux,
        "max_degree_aux": r.Delta_aux,
        "diameter_aux": r.diam_aux,
        "clique_number_aux": r.omega_aux,
        "circumference": r.circumference_g,
        "max_minimal_cut": r.max_minimal_cut_g,
        "verdicts": {
            k: {"ok": ok, "slack": slack} for k, (ok, slack) in sorted(r.verdicts.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def report_to_text(r):
    lines = [
        f"n={r.n} m={r.m} aux_vertices={r.aux_vertices}",
        f"min_degree={r.delta_aux} max_degree={r.Delta_aux} "
        f"diameter={r.diam_aux} clique_number={r.omega_aux}",
        f"circumference={r.circumference_g} max_minimal_cut={r.max_minimal_cut_g}",
    ]
    for name, (ok, slack) in sorted(r.verdicts.items()):
        status = "skipped" if ok is None else ("ok" if ok else "VIOLATED")
        extra = f" slack={slack}" if slack is not None else ""
        lines.append(f"{name}: {status}{extra}")
    return "\n".join(lines) + "\n"
