"""Parameter relations between a graph and its spanning tree auxiliary graph:
degree bounds, diameter bound and the clique-number identity."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .aux_graph import build_stag
from .errors import Acyclic
from .graph_core import bfs, circumference, minimal_edge_cuts
from .spanning_trees import DEFAULT_MAX_TREES


@dataclass(frozen=True)
class ParamReport:
    n: int
    m: int
    aux_vertices: int
    delta_aux: int
    Delta_aux: int
    diam_aux: int
    omega_aux: int
    circumference_g: int | None
    max_minimal_cut_g: int
    verdicts: dict  # name -> (ok: bool | None for skipped, slack: int | None)


def _all_pairs_diameter(g):
    """Largest eccentricity: the eccentricity of s is the number of hops
    from the last vertex a BFS from s discovers back to s."""
    diam = 0
    for s in g.vertices:
        tree = bfs(g, s)
        x = next(reversed(tree))
        hops = 0
        while x != s:
            x = tree[x][0]
            hops += 1
        diam = max(diam, hops)
    return diam


def maximal_cliques(g):
    """All maximal cliques (vertex frozensets), Bron-Kerbosch with pivot."""
    adj = {v: set(g.adj(v)) for v in g.vertices}
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(g.vertices), set())
    return out


def exchange_diameter(s):
    """max over tree pairs of half the symmetric edge-set difference, with
    trees held as bitmasks over edge positions."""
    bit = {eid: 1 << p for p, eid in enumerate(s.origin.edge_ids())}
    masks = [sum(bit[eid] for eid in t.key) for t in s.trees]
    return max(((a ^ b).bit_count() for a, b in combinations(masks, 2)), default=0) // 2


def param_report(g, max_trees=DEFAULT_MAX_TREES, max_n=12):
    """Evaluate the degree, diameter and clique-number relations on Aux(g)."""
    s = build_stag(g, max_trees)
    aux = s.graph
    n, m = g.n, g.m
    degs = [aux.degree(v) for v in aux.vertices]
    delta, big_delta = min(degs), max(degs)
    diam = _all_pairs_diameter(aux)
    omega = max(map(len, maximal_cliques(aux)))
    try:
        circ = circumference(g, max_n) if g.m else None
    except Acyclic:
        circ = None
    cuts = minimal_edge_cuts(g, max_n)
    max_cut = max((len(c.edge_ids) for c in cuts), default=0)
    cyclomatic = m - n + 1
    verdicts = {
        "max_degree_bound": (
            big_delta <= (n - 1) * cyclomatic,
            (n - 1) * cyclomatic - big_delta,
        ),
        "min_degree_bound": (delta >= 2 * cyclomatic, delta - 2 * cyclomatic),
        "diameter_bound": (diam <= n - 1, (n - 1) - diam),
        "diameter_matches_exchange": (diam == exchange_diameter(s), None),
    }
    if circ is None:
        verdicts["clique_number"] = (None, None)  # acyclic: Aux is K1, skipped
    else:
        verdicts["clique_number"] = (omega == max(circ, max_cut), None)
    return ParamReport(
        n=n,
        m=m,
        aux_vertices=aux.n,
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
