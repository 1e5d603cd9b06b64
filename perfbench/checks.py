"""Independent answer checks for the benchmark.

Nothing here calls stag's own algorithms: tree counts come from a modular
determinant, spanning trees from an edge-subset scan, auxiliary graphs
from an exchange lookup over those trees, and isomorphism, bridges and
blocks from networkx. Graphs are plain ``(vertices, edges)`` data, with
``edges`` a list of ``(eid, u, v)`` triples, so stag objects only supply
data. Every check returns a list of problems; an empty list means the
answer is correct.
"""

import json
from itertools import combinations

import networkx as nx


def to_nx(vertices, edges):
    h = nx.Graph()
    h.add_nodes_from(vertices)
    h.add_edges_from((u, v) for _, u, v in edges)
    return h


# -- exact tree count: Laplacian minor determinant modulo primes, then CRT --


def _is_prime(p):
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_below(start):
    p = start
    while True:
        p -= 1
        if _is_prime(p):
            yield p


def _det_mod(mat, p):
    a = [[x % p for x in row] for row in mat]
    size = len(a)
    det = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        rk = a[k]
        det = det * rk[k] % p
        inv = pow(rk[k], -1, p)
        for i in range(k + 1, size):
            ri = a[i]
            f = ri[k] * inv % p
            if f:
                a[i] = ri[:k] + [(x - f * y) % p for x, y in zip(ri[k:], rk[k:])]
    return det % p


def tree_count(vertices, edges):
    """Number of spanning trees, exact.

    The count is at most the product of the degrees of the non-root
    vertices (orient each tree towards the root: every other vertex picks
    one incident edge), so residues modulo primes whose product exceeds
    that bound determine it."""
    vs = list(vertices)
    if len(vs) == 1:
        return 1
    idx = {v: i for i, v in enumerate(vs[:-1])}
    size = len(vs) - 1
    mat = [[0] * size for _ in range(size)]
    deg = {v: 0 for v in vs}
    for _, u, v in edges:
        deg[u] += 1
        deg[v] += 1
        for x, y in ((u, v), (v, u)):
            if x in idx:
                mat[idx[x]][idx[x]] += 1
                if y in idx:
                    mat[idx[x]][idx[y]] -= 1
    bound = 1
    for v in vs[:-1]:
        bound *= deg[v]
    value, modulus = 0, 1
    for p in _primes_below(1 << 62):
        if modulus > bound:
            break
        r = _det_mod(mat, p)
        # Chinese remaindering: value' = value (mod modulus), r (mod p).
        t = (r - value) * pow(modulus, -1, p) % p
        value += modulus * t
        modulus *= p
    return value


# -- spanning trees and the auxiliary graph by brute force -------------------


def spanning_trees(vertices, edges):
    """Sorted edge-id tuples of all spanning trees, by scanning every
    (n-1)-subset of the edges with a union-find."""
    vs = list(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    ends = sorted((eid, pos[u], pos[v]) for eid, u, v in edges)
    out = []
    for combo in combinations(ends, len(vs) - 1):
        parent = list(range(len(vs)))
        ok = True
        for _, u, v in combo:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if ok:
            out.append(tuple(eid for eid, _, _ in combo))
    return out


def aux_edges(trees, eids):
    """Index pairs (i < j) of trees that differ by one edge exchange."""
    index = {frozenset(t): i for i, t in enumerate(trees)}
    out = set()
    for i, t in enumerate(trees):
        ts = frozenset(t)
        outside = [e for e in eids if e not in ts]
        for f in t:
            base = ts - {f}
            for e in outside:
                j = index.get(base | {e})
                if j is not None and i < j:
                    out.add((i, j))
    return out


def aux_graph(vertices, edges):
    """(trees, edge set) of Aux(G)."""
    trees = spanning_trees(vertices, edges)
    return trees, aux_edges(trees, [eid for eid, _, _ in edges])


# -- checks, one per kind of answer -----------------------------------------


def check_aux_json(text, vertices, edges, oracle_stag=None):
    """Forward answer: stag_to_json(build_stag(G)) against Aux(G).

    oracle_stag is oracles.brute_force_stag(G) where its guard allows it."""
    problems = []
    doc = json.loads(text)
    count = tree_count(vertices, edges)
    if len(doc["vertices"]) != count:
        problems.append(f"{len(doc['vertices'])} Aux vertices, {count} spanning trees")
    trees, ref_edges = aux_graph(vertices, edges)
    if [tuple(t) for t in doc["trees"]] != trees:
        problems.append("tree annotations differ from the spanning trees")
    got = {tuple(sorted((int(u), int(v)))) for u, v in doc["edges"]}
    if len(got) != len(doc["edges"]) or got != ref_edges:
        problems.append(f"{len(doc['edges'])} Aux edges, reference has {len(ref_edges)}")
    if oracle_stag is not None:
        if [list(t.key) for t in oracle_stag.trees] != doc["trees"]:
            problems.append("trees differ from oracles.brute_force_stag")
        if {(e.u, e.v) for e in oracle_stag.graph.edges} != got:
            problems.append("edges differ from oracles.brute_force_stag")
    return problems


def check_param_report(report, vertices, edges):
    """param_report(G) against Aux(G) measured with networkx."""
    trees, ref_edges = aux_graph(vertices, edges)
    aux = nx.Graph()
    aux.add_nodes_from(range(len(trees)))
    aux.add_edges_from(ref_edges)
    degs = [d for _, d in aux.degree()]
    want = {
        "n": len(vertices),
        "m": len(edges),
        "aux_vertices": len(trees),
        "delta_aux": min(degs),
        "Delta_aux": max(degs),
        "diam_aux": nx.diameter(aux),
        "omega_aux": max(len(c) for c in nx.find_cliques(aux)),
    }
    problems = [
        f"{k} is {getattr(report, k)}, expected {v}"
        for k, v in want.items()
        if getattr(report, k) != v
    ]
    problems.extend(
        f"verdict {name} fails on a real auxiliary graph"
        for name, (ok, _) in report.verdicts.items()
        if ok is False
    )
    return problems


def check_preimage(pre_vertices, pre_edges, h_vertices, h_edges):
    """Recognition answer: a minimal preimage of the candidate h."""
    g = to_nx(pre_vertices, pre_edges)
    if not nx.is_connected(g):
        return ["returned preimage is disconnected"]
    if g.number_of_nodes() > 1 and nx.has_bridges(g):
        return ["returned preimage has a bridge, so it is not minimal"]
    trees, ref_edges = aux_graph(pre_vertices, pre_edges)
    aux = nx.Graph()
    aux.add_nodes_from(range(len(trees)))
    aux.add_edges_from(ref_edges)
    if not nx.vf2pp_is_isomorphic(aux, to_nx(h_vertices, h_edges)):
        return ["Aux of the returned preimage is not isomorphic to the input"]
    return []


def check_labelled_aux(vertices, edges, aux_vertices, aux_edges_):
    """The recognition input really is Aux(G), vertex for vertex."""
    trees, ref_edges = aux_graph(vertices, edges)
    got = {(min(u, v), max(u, v)) for _, u, v in aux_edges_}
    if list(aux_vertices) != list(range(len(trees))) or got != ref_edges:
        return ["recognition input is not Aux of its generating graph"]
    return []


def check_mapping(vertices1, edges1, vertices2, edges2, mapping):
    """An isomorphism mapping, checked edge by edge."""
    if sorted(mapping) != sorted(vertices1) or sorted(mapping.values()) != sorted(vertices2):
        return ["mapping is not a bijection between the vertex sets"]
    target = {frozenset((u, v)) for _, u, v in edges2}
    if len(edges1) != len(target):
        return ["edge counts differ"]
    for _, u, v in edges1:
        if frozenset((mapping[u], mapping[v])) not in target:
            return [f"edge ({u},{v}) maps to a non-edge"]
    return []


def check_blocks(blocks, cut_vertices, vertices, edges):
    """Blocks as edge-id sets and cut vertices, against networkx."""
    g = to_nx(vertices, edges)
    eid = {frozenset((u, v)): e for e, u, v in edges}
    want = {
        frozenset(eid[frozenset(p)] for p in comp)
        for comp in nx.biconnected_component_edges(g)
    }
    problems = []
    if {frozenset(b) for b in blocks} != want or len(blocks) != len(want):
        problems.append(f"{len(blocks)} blocks, networkx finds {len(want)}")
    if set(cut_vertices) != set(nx.articulation_points(g)):
        problems.append("cut vertices differ from networkx")
    return problems


# -- text written by the CLI ---------------------------------------------------


def read_edgelist(text):
    """(vertices, edges) of edge-list text; names stay as they are."""
    ids = {}
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = line.split()
        for t in (u, v):
            ids.setdefault(t, len(ids))
        edges.append((len(edges), ids[u], ids[v]))
    if not ids:
        ids["0"] = 0  # a single vertex is written as a comment line
    return list(range(len(ids))), edges
