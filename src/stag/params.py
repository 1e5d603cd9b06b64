"""Parameter relations between a graph and its spanning tree auxiliary graph:
degree bounds, diameter bound and the clique-number identity."""

from collections import Counter, namedtuple

from .errors import Disconnected
from .graph_core import _UnionFind
from .spanning_trees import DEFAULT_MAX_TREES, _walk


class ParamReport(namedtuple("ParamReport", "n m aux_vertices delta_aux Delta_aux diam_aux "
                             "omega_aux circumference_g max_minimal_cut_g verdicts")):
    """The sizes and parameters of g and Aux(g) that param_report reads;
    circumference_g is None when g is acyclic, and verdicts maps each
    relation's name to (ok, slack): ok is None when the relation is
    skipped and slack None when it has none."""

    __slots__ = ()


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


def _exchange_diameter(g, masks):
    """Largest |T1 - T2| over two spanning trees of g, given every tree's
    mask in _walk's bit order.

    Fix T1. Then T2 - T1 is a forest in E - T1, and a largest forest of
    E - T1 extends to a spanning tree with edges of T1, so the largest
    |T2 - T1| is the rank r(E - T1) = n - components(V, E - T1). As
    |T2 - T1| is at most |T1| = n - 1 and at most |E - T1| = m - n + 1,
    the scan stops once a tree reaches min(n - 1, m - n + 1)."""
    n, m = g.n, g.m
    bound, best = min(n - 1, m - n + 1), 0
    for mask in masks:
        uf = _UnionFind(g.vertices)
        rank = sum(uf.union(e.u, e.v) for e, bit in zip(g.edges, f"{mask:0{m}b}") if bit == "0")
        best = max(best, rank)
        if best >= bound:
            break
    return best


def param_report(g, max_trees=DEFAULT_MAX_TREES):
    """Evaluate the degree, diameter and clique-number relations on Aux(g).

    Every number is read off the walk's tree masks and exchange rows, so
    the tree count is the only bound: the degrees, the diameter and the
    clique number of Aux(g) from neighbour lists and masks built once from
    the rows, and the exchange diameter from a rank per tree.

    The circumference and the largest bond come from groups of pairs
    (Maurer 1973). Each cycle C is the fundamental cycle of a chord e of
    some tree T (extend the path C - e), and the trees T + e - f, f on C,
    form a clique of Aux(g). Its member u0 of lowest index meets every
    other member in a pair (u0, v) in which v adds the same edge to u0, so
    grouped by u and the edge that v adds, u0's group holds |C| - 1 pairs.
    Any other group (u, a) lies within C_a(u) - a, so the circumference is
    1 + the largest group. Each bond D is likewise the fundamental cut of a
    tree edge f of some T (join trees of its two sides by f), the trees
    T - f + d, d in D, form a clique, and the groups by u and the edge that
    v removes give the largest bond. A tree with edges has no pairs and
    every edge a bond of one; K1 has none. The tests check both against
    the brute-force circumference and minimal_edge_cuts of tests/oracles.py."""
    masks, pairs = _walk(g, max_trees)
    n, m = g.n, g.m
    w = m + 1  # an edge bit's bit_length is 1..m
    rows = list(zip(range(len(masks)), masks, pairs.rows))
    added = max(Counter(u * w + (masks[v] & ~mu).bit_length()
                        for u, mu, row in rows for v in row).values(), default=0)
    removed = max(Counter(u * w + (mu & ~masks[v]).bit_length()
                          for u, mu, row in rows for v in row).values(), default=0)
    nbrs = [[] for _ in masks]
    for u, _, row in rows:
        nbrs[u] += row
        for v in row:
            nbrs[v].append(u)
    degs = list(map(len, nbrs))
    delta, big_delta = min(degs), max(degs)
    diam = _all_pairs_diameter(nbrs)
    omega = _clique_number(_masks(nbrs))
    circ = added + 1 if added else None
    max_cut = removed + 1 if m else 0
    cyclomatic = m - n + 1
    verdicts = {
        "max_degree_bound": (
            big_delta <= (n - 1) * cyclomatic,
            (n - 1) * cyclomatic - big_delta,
        ),
        "min_degree_bound": (delta >= 2 * cyclomatic, delta - 2 * cyclomatic),
        "diameter_bound": (diam <= n - 1, (n - 1) - diam),
        "diameter_matches_exchange": (diam == _exchange_diameter(g, masks), None),
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
