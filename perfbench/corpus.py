"""Seeded inputs and operations of the three workloads.

Every operation calls stag through a module attribute at call time (for
example ``S.aux_graph.build_stag``), so the span recorder in spans.py can
wrap it. stag receives only graphs, text and files that the benchmark
made.

The random preimages of forward and recognize come from fixed tables of
generator seeds, committed below: for each size, the first seeds
(counting from 0) whose graph has a spanning-tree count in a narrow
window. The run seed picks which table entries a run uses, the flipped
edge of each negative and the order of the operations; it never changes
the families, the sizes, the number of operations or how much set-up work
is done. Where a table holds exactly as many entries as a run uses, the
seed only orders them: the prime positives and products of recognize are
the same in every run, because search cost varies two- to threefold
between graphs of the same size and tree count, and op_p50_ms and
op_p90_ms fall among them. The large graphs of scale are drawn from the
run seed directly: their cost follows their size, which the seed does not
change. The order is shuffled so that each family is timed throughout the
pass, not during one stretch of it.

Input families and why they are here:

forward
  * 2-connected preimages with about 90-370 spanning trees: the bulk of
    ``stag aux`` use; cost is the exchange walk and the second exchange
    pass of build_stag.
  * multi-block preimages with about 85-265 trees: Aux is a Cartesian
    product, so the walk crosses several blocks.
  * 2-connected preimages with about 500, 700, 1,000 and 4,000 trees,
    and K6 (1,296 trees, 17k Aux edges, the dense symmetric case): the
    large builds that set memory and most of the time. K7 (16,807 trees,
    365k Aux edges) is left out: one build takes 5-9 s, so it would take
    half of a run in two samples and set ops_per_s alone.
  * param_report on preimages with 29-92 trees: the ``stag params`` path
    (diameter, cliques, cuts) on top of a build.
recognize
  * prime positives from 2-connected preimages with n 5-10 and m from n+2
    to n+4, in a cheap tier (21-62 trees) and a heavier tier (68-116
    trees): recognition's neighbourhood partitions and layout search.
    op_p50_ms falls in the cheap tier and op_p90_ms in the heavier one.
  * products: preimages of two blocks, and of three triangles, whose Aux
    is a Cartesian product, so factorization does the work and many tiny
    candidate builds follow.
  * negatives: Aux plus one edge between two trees at distance >= 3, on
    preimages with n 5-7; the seed picks the preimages and the edge.
    Every edge of the auxiliary graph of a simple graph lies in a triangle
    (T-f+e, T-f'+e and T pairwise differ by one exchange), so the new edge
    makes a graph that is certainly not an auxiliary graph; the oracle
    confirms it in the checks.
  * slow tail, in the first and the last pass: Aux of K6; of 2-connected
    preimages with (n, m) = (6, 12) and (7, 16), generator seed 0; of the
    symmetric theta graphs with paths of lengths 1, 4, 4 and 1, 5, 5; and
    of three cycles C3, C4, C4 joined at cut vertices (a product of
    complete graphs).
    These are the inputs that are slow today (dense preimages and highly
    symmetric Aux). They run under the time limit like everything else,
    and a timeout counts as a failure. Symmetric theta graphs are
    2-connected graphs with m = n + 1, which is why the random prime
    families start at m = n + 2: the two thetas above are the only
    seconds-long cases of that kind.
  * every fourth positive and negative of each table goes through
    ``stag invert`` on a file, so parsing and the CLI are on the path.
scale
  * chains of 2-connected blocks with about 700 and 1,000 edges:
    block_decomposition and to_edgelist/to_json on graphs of that size.
  * parse_graph on JSON text of ten 1,000-edge chains and on edge-list
    text of 2,000 edges, and ``stag count``/``stag blocks`` on files of
    1,000-3,000 edges: the duplicate-edge scan in both parsers is
    quadratic today.
  * count_spanning_trees on connected graphs with n 60-150 and m = 3n:
    big-integer elimination.
  * are_isomorphic on a path, a grid and a cycle of 500-1,200 vertices
    against a seeded relabelling: the unmapped-vertex rescan in the
    backtracking is quadratic today.
  * the nine operations of more than 0.1 s other than the JSON parses
    (``stag blocks`` on 3,000 edges, ``stag count``, isomorphism, the
    2,000-edge parse, the counts with n=120 and 150) are heavy ops, so the
    rest get more passes.
"""

import json
import os
import random
from collections import deque
from dataclasses import dataclass


@dataclass
class Op:
    """One timed operation and what its answer is checked against."""

    label: str  # input family and size, used when listing failures
    call: object  # zero-argument callable running the operation through stag
    check: object  # answer -> list of problems (run after the timed phase)
    negative: bool = False  # NotAStag (CLI exit 1) is the correct outcome
    cli: bool = False  # call returns a CLI exit code, not a value
    keep: object = None  # answer -> the part retained for the check
    digest: object = None  # answer -> small value compared across passes
    heavy: bool = False  # runs in the first and the last pass only


@dataclass
class Corpus:
    ops: list
    warmups: list
    limit_s: float  # per-operation time limit
    pass_s: float  # nominal seconds per pass, heavy ops' share included


def _checks():
    import checks  # networkx is imported by the checker only, after timing

    return checks


def edgelist_text(edges):
    """Edge-list text that parses back to the same labelled graph and
    serialises to the same bytes: each line names first the endpoint that
    appeared earlier, as parsers number vertices by first appearance."""
    first = {}
    lines = []
    for _, u, v in edges:
        for x in (u, v):
            first.setdefault(x, len(first))
        a, b = (u, v) if first[u] < first[v] else (v, u)
        lines.append(f"{a} {b}\n")
    return "".join(lines)


def json_text(vertices, edges):
    doc = {
        "vertices": [str(v) for v in vertices],
        "edges": [[str(u), str(v)] for _, u, v in edges],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _data(g):
    return list(g.vertices), [(e.eid, e.u, e.v) for e in g.edges]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cycle(slots, count):
    return [slots[i % len(slots)] for i in range(count)]


def _draw(rng, table, k, tiny=False):
    """(shape, generator seed) for k entries of each row of a seed table,
    in table order: all of them when k is the row's length. A tiny corpus
    takes one entry of each of the first four rows."""
    rows = table[:4] if tiny else table
    for shape, _, _, seeds in rows:
        for j in sorted(rng.sample(range(len(seeds)), 1 if tiny else k)):
            yield shape, seeds[j]


def _two_connected(S, n, m, seed):
    return f"2c({n},{m})", S.generators.random_two_connected_graph(n, m, seed)


def _multiblock(S, sizes, seed):
    return f"blocks{sizes}", S.generators.random_multiblock_graph(list(sizes), seed)


def _graph_digest(g):
    return (g.n, g.m, hash(tuple((e.u, e.v) for e in g.edges)))


def _text_digest(text):
    return (len(text), hash(text))


def _finish(ops, warmups, limit_s, pass_s, rng):
    rng.shuffle(ops)
    return Corpus(ops, warmups, limit_s, pass_s)


# -- forward: G -> Aux(G) -----------------------------------------------------

# Seed tables. A row: (n, m) of random_two_connected_graph or the block
# sizes of random_multiblock_graph, the lowest tree count, one past the
# highest, and the first generator seeds from 0 up whose graph has a tree
# count in that window (test_perfbench checks them).
FWD_SMALL = [
    ((7, 10), 85, 92, (3, 11, 12, 19, 20, 24, 27, 28, 35, 44, 48, 52)),
    ((8, 11), 120, 132, (12, 13, 17, 19, 22, 29, 34, 35, 41, 47, 50, 51)),
    ((8, 12), 250, 270, (7, 8, 13, 17, 19, 28, 32, 38, 41, 43, 47, 48)),
    ((9, 12), 165, 180, (1, 4, 13, 17, 37, 39, 48, 53, 55, 56, 64, 66)),
    ((9, 13), 340, 370, (12, 14, 15, 18, 24, 31, 35, 48, 52, 54, 56, 57)),
    ((10, 13), 210, 232, (6, 10, 18, 22, 26, 32, 35, 41, 42, 46, 52, 56)),
]
FWD_MULTI = [
    ((4, 5), 84, 89, (7, 9, 11, 15, 16, 18)),
    ((5, 5), 220, 265, (6, 10, 12, 13, 17, 20)),
    ((3, 4, 4), 192, 193, (0, 1, 12, 14, 15, 16)),
    ((4, 4, 4), 256, 257, (1, 7, 9, 11, 14, 15)),
    ((4, 5, 3), 240, 265, (7, 9, 11, 15, 16, 18)),
    ((5, 4), 160, 200, (6, 10, 12, 13, 17, 20)),
]
FWD_PARAMS = [
    ((6, 8), 29, 31, (13, 14, 15, 21, 22, 23, 24, 25)),
    ((6, 9), 58, 64, (4, 5, 8, 9, 11, 14, 18, 20)),
    ((7, 9), 40, 44, (2, 3, 6, 7, 11, 12, 15, 16)),
    ((7, 10), 85, 92, (3, 11, 12, 19, 20, 24, 27, 28)),
    ((8, 10), 54, 59, (0, 2, 6, 7, 16, 18, 19, 22)),
]
FWD_LARGE = [
    ((10, 14), 500, 540, (1, 4)),
    ((9, 14), 700, 760, (5, 6)),
    ((10, 15), 1000, 1080, (1, 8)),
    ((12, 18), 4000, 4300, (14, 16)),
]
FWD_HEAVY_M = 18  # the 4,000-tree build: seconds, so a heavy op
ORACLE_MAX_TREES = 2000  # oracles.brute_force_stag's default guard
ORACLE_MAX_M = 24  # oracles.brute_force_trees's default guard


def forward(S, seed, workdir, tiny=False):
    rng = random.Random(seed)
    plan = []  # (label, graph, kind)
    for (n, m), s in _draw(rng, FWD_SMALL, 8, tiny):
        plan.append(_two_connected(S, n, m, s) + ("aux",))
    for sizes, s in _draw(rng, FWD_MULTI, 4, tiny):
        plan.append(_multiblock(S, sizes, s) + ("aux",))
    for (n, m), s in _draw(rng, FWD_PARAMS, 5, tiny):
        plan.append(_two_connected(S, n, m, s) + ("params",))
    if not tiny:
        for (n, m), s in _draw(rng, FWD_LARGE, 1):
            plan.append(_two_connected(S, n, m, s) + ("aux",))
        plan.append(("K6", S.graph_core.complete_graph(6), "aux"))

    ops = []
    for label, g, kind in plan:
        vertices, edges = _data(g)
        if kind == "aux":
            call = lambda g=g: S.aux_graph.stag_to_json(S.aux_graph.build_stag(g))  # noqa: E731
            check = lambda text, g=g, vs=vertices, es=edges: _check_aux(S, g, vs, es, text)  # noqa: E731
            ops.append(Op(label, call, check, digest=_text_digest, heavy=g.m >= FWD_HEAVY_M))
        else:
            call = lambda g=g: S.params.param_report(g)  # noqa: E731
            check = lambda r, vs=vertices, es=edges: _checks().check_param_report(r, vs, es)  # noqa: E731
            ops.append(Op(f"params {label}", call, check, digest=repr))
    c4 = S.graph_core.cycle_graph(4)
    warmups = [
        lambda: S.aux_graph.stag_to_json(S.aux_graph.build_stag(c4)),
        lambda: S.params.param_report(c4),
    ]
    return _finish(ops, warmups, 30.0, 4.0, rng)


def _check_aux(S, g, vertices, edges, text):
    ck = _checks()
    oracle = None
    if len(edges) <= ORACLE_MAX_M and ck.tree_count(vertices, edges) <= ORACLE_MAX_TREES:
        oracle = S.oracles.brute_force_stag(g)
    return ck.check_aux_json(text, vertices, edges, oracle)


# -- recognize: Aux -> minimal preimage ---------------------------------------

REC_CHEAP = [
    ((5, 7), 21, 22, (0, 1, 2, 7, 10, 11, 12, 13, 15)),
    ((5, 8), 40, 41, (1, 2, 5, 6, 8, 10, 11, 12, 13)),
    ((6, 8), 29, 31, (13, 14, 15, 21, 22, 23, 24, 25, 27)),
    ((6, 9), 54, 62, (1, 4, 5, 8, 9, 11, 14, 15, 18)),
    ((7, 9), 39, 44, (2, 3, 6, 7, 10, 11, 12, 15, 16)),
    ((8, 10), 52, 57, (0, 6, 16, 17, 18, 21, 26, 30, 31)),
]
REC_HEAVY = [
    ((5, 9), 75, 76, (0, 1, 2, 3)),
    ((6, 10), 111, 116, (0, 1, 5, 6)),
    ((7, 10), 85, 92, (3, 11, 12, 19)),
    ((9, 11), 68, 76, (4, 7, 9, 10)),
    ((10, 12), 82, 92, (1, 3, 8, 10)),
]
REC_PRODUCT = [
    ((3, 4), 12, 49, (0, 1)),
    ((4, 4), 16, 65, (0, 1)),
    ((4, 5), 40, 97, (0, 1)),
    ((5, 4), 40, 97, (0, 1)),
    ((5, 5), 55, 133, (0, 1)),
    ((3, 3, 3), 27, 28, (0, 1)),
]
# Every preimage of these sizes with generator seeds 0-5 has an Aux with
# two trees at distance >= 3; the tree counts are not constrained.
REC_NEGATIVE = [((n, m), None, None, tuple(range(6)))
                for n, m in [(5, 7), (6, 8), (6, 9), (7, 9), (7, 10)]]
REC_DENSE = [(6, 12), (7, 16)]


def _theta(S, a, b, c):
    """Two poles joined by internally disjoint paths of lengths a, b, c."""
    pairs = []
    nxt = 2
    for length in (a, b, c):
        chain = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        pairs.extend(zip(chain, chain[1:]))
    return S.graph_core.Graph.from_pairs(pairs)


def _cycles(S, lengths):
    """Cycles joined in a chain, each sharing one vertex with the next."""
    pairs = []
    start = 0
    for k in lengths:
        ring = list(range(start, start + k))
        pairs.extend(zip(ring, ring[1:] + ring[:1]))
        start += k - 1
    return S.graph_core.Graph.from_pairs(pairs)


def _far_pair(h, rng):
    """Two vertices of h at distance >= 3, or None."""
    order = list(h.vertices)
    rng.shuffle(order)
    for x in order:
        dist = {x: 0}
        queue = deque([x])
        while queue:
            y = queue.popleft()
            for z in h.adj(y):
                if z not in dist:
                    dist[z] = dist[y] + 1
                    queue.append(z)
        far = sorted(y for y, d in dist.items() if d >= 3)
        if far:
            return x, rng.choice(far)
    return None


def recognize(S, seed, workdir, tiny=False):
    rng = random.Random(seed)
    build = S.aux_graph.build_stag
    families = []  # lists of (label, preimage, candidate h, negative)

    for table, k in ((REC_CHEAP, 9), (REC_HEAVY, 4)):
        families.append([("prime",) + _two_connected(S, n, m, s)
                         for (n, m), s in _draw(rng, table, k, tiny)])
    families.append([("product",) + _multiblock(S, sizes, s)
                     for sizes, s in _draw(rng, REC_PRODUCT, 2, tiny)])
    families = [[(f"{kind} {label}", g, build(g).graph, False) for kind, label, g in fam]
                for fam in families]
    negatives = []
    for (n, m), s in _draw(rng, REC_NEGATIVE, 3, tiny):
        g = S.generators.random_two_connected_graph(n, m, s)
        h = build(g).graph
        pair = _far_pair(h, rng)
        if pair is None:
            raise RuntimeError(f"Aux of 2c({n},{m}) seed {s} has no trees at distance >= 3")
        flipped = S.graph_core.Graph(
            h.vertices, [(e.eid, e.u, e.v) for e in h.edges] + [(h.m,) + pair]
        )
        negatives.append((f"flip 2c({n},{m})#{s}+{pair}", g, flipped, True))
    families.append(negatives)

    ops = []
    for fam in families:
        for i, case in enumerate(fam):
            ops.append(_recognition_op(S, workdir, len(ops), case, cli=i % 4 == 3))
    if not tiny:
        slow = [("K6", S.graph_core.complete_graph(6)),
                ("theta(1,4,4)", _theta(S, 1, 4, 4)),
                ("theta(1,5,5)", _theta(S, 1, 5, 5)),
                ("cycles C3,C4,C4", _cycles(S, (3, 4, 4)))]
        for n, m in REC_DENSE:
            slow.append(_two_connected(S, n, m, 0))
        for label, g in slow:
            ops.append(_recognition_op(
                S, workdir, len(ops), (f"slow {label}", g, build(g).graph, False), cli=False,
                heavy=True))

    c5 = S.generators.random_two_connected_graph(5, 7, 0)
    h5 = build(c5).graph
    src = os.path.join(workdir, "warmup.txt")
    _write(src, edgelist_text(_data(h5)[1]))
    warmups = [
        lambda: S.recognition.invert(h5),
        lambda: S.cli.run(["invert", "-i", src, "-o", os.path.join(workdir, "warmup.out")]),
    ]
    return _finish(ops, warmups, 0.6, 5.0, rng)


def _recognition_op(S, workdir, i, case, cli, heavy=False):
    label, g, h, negative = case
    h_data = _data(h)

    def check(answer):
        return _check_recognition(S, g, h, h_data, answer, negative)

    if not cli:
        return Op(label, lambda: S.recognition.invert(h), check, negative=negative,
                  digest=str if negative else _graph_digest, heavy=heavy)
    src = os.path.join(workdir, f"aux{i}.txt")
    dst = os.path.join(workdir, f"pre{i}.txt")
    _write(src, edgelist_text(h_data[1]))
    return Op(
        f"cli {label}", lambda: S.cli.run(["invert", "-i", src, "-o", dst]), check,
        negative=negative, cli=True,
        keep=lambda code: None if negative else _read(dst),
        digest=lambda code: code if negative else _read(dst),
    )


def _check_recognition(S, g, h, h_data, answer, negative):
    """answer: the preimage Graph, its edge-list text (CLI), or the
    NotAStag raised for a negative."""
    ck = _checks()
    if negative:
        if S.oracles.brute_force_is_stag(h) is not None:
            return ["the oracle finds a preimage of a negative"]
        return []
    problems = ck.check_labelled_aux(*_data(g), *h_data)
    pre = ck.read_edgelist(answer) if isinstance(answer, str) else _data(answer)
    return problems + ck.check_preimage(*pre, *h_data)


# -- scale: large sparse inputs ----------------------------------------------

SCALE_CHAINS = [700, 1000]  # edges of the chains, alternating
SCALE_CHAIN_COUNT = 72  # block decompositions
SCALE_SERIALISE = 59  # chains also serialised
SCALE_JSON_PARSES = 10  # chains of 1,000 edges also parsed from JSON
# Rows end with True for a heavy op (over 0.1 s and above op_p90_ms).
SCALE_PARSE = [("edgelist", 2000, True)]
SCALE_CLI_COUNT = [(70, 1000, True), (90, 1500, True)]
SCALE_CLI_BLOCKS = [(1000, False), (3000, True)]
SCALE_COUNT = [(60, False), (90, False), (120, True), (150, True)]
SCALE_ISO = [("path", 500, True), ("grid", (30, 33), True), ("cycle", 1200, True)]


def _block_chain(S, rng, edges):
    """Chain of random 2-connected blocks with about the given edge count
    (a block of s vertices has s to s+2 edges)."""
    sizes = []
    total = 0
    while total < edges:
        s = rng.randint(5, 9)
        sizes.append(s)
        total += s + 1
    return S.generators.random_multiblock_graph(sizes, rng.randrange(1 << 30))


def _family(S, kind, size):
    gc = S.graph_core
    if kind == "path":
        return gc.path_graph(size)
    if kind == "cycle":
        return gc.cycle_graph(size)
    rows, cols = size
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return gc.Graph.from_pairs(pairs)


def _relabelled(S, g, rng):
    perm = list(g.vertices)
    rng.shuffle(perm)
    move = dict(zip(g.vertices, perm))
    pairs = [(move[e.u], move[e.v]) for e in g.edges]
    rng.shuffle(pairs)
    return S.graph_core.Graph.from_pairs(pairs, vertices=perm)


def scale(S, seed, workdir, tiny=False):
    rng = random.Random(seed)
    gc = S.graph_core
    ck = _checks
    shrink = 10 if tiny else 1
    ops = []

    # Counts are chosen so that op_p50_ms falls in the middle of the block
    # decompositions of the smaller chains, and op_p90_ms in the middle of
    # the JSON parses, just below the heavy ops: a quantile that falls
    # between two operations of different kinds would move with either.
    chains = [_block_chain(S, rng, size // shrink)
              for size in _cycle(SCALE_CHAINS, 4 if tiny else SCALE_CHAIN_COUNT)]
    for k, g in enumerate(chains):
        vs, es = _data(g)
        ops.append(Op(
            f"blocks chain m={g.m}", lambda g=g: gc.block_decomposition(g),
            lambda kept, vs=vs, es=es: ck().check_blocks(kept[0], kept[1], vs, es),
            keep=lambda d: ([b.edge_ids() for b in d.blocks], sorted(d.cut_vertices)),
            digest=lambda d: (len(d.blocks), len(d.cut_vertices)),
        ))
        if k >= (2 if tiny else SCALE_SERIALISE):
            continue
        fmt = ("edgelist", "json")[k % 2]
        want = "".join(f"{u} {v}\n" for _, u, v in es) if fmt == "edgelist" else json_text(vs, es)
        ops.append(Op(
            f"to_{fmt} chain m={g.m}", lambda g=g, name=f"to_{fmt}": getattr(gc, name)(g),
            lambda text, want=want: [] if text == want else ["serialised text differs"],
            digest=_text_digest,
        ))

    parses = [("json", g, False) for g in chains[1::2][:1 if tiny else SCALE_JSON_PARSES]]
    parses += [(fmt, _block_chain(S, rng, size // shrink), heavy)
               for fmt, size, heavy in SCALE_PARSE]
    for fmt, g, heavy in parses:
        vs, es = _data(g)
        text = edgelist_text(es) if fmt == "edgelist" else json_text(vs, es)
        ops.append(Op(
            f"parse {fmt} m={g.m}", lambda text=text, fmt=fmt: gc.parse_graph(text, fmt),
            lambda p, text=text, fmt=fmt, es=es: _check_parse(gc, p, text, fmt, es),
            digest=_graph_digest, heavy=heavy,
        ))

    for i, (n, m, heavy) in enumerate([(12, 30, False)] if tiny else SCALE_CLI_COUNT):
        g = S.generators.random_connected_graph(n, m, rng.randrange(1 << 30))
        vs, es = _data(g)
        src = os.path.join(workdir, f"count{i}.txt")
        dst = os.path.join(workdir, f"count{i}.out")
        _write(src, edgelist_text(es))
        ops.append(Op(
            f"cli count n={n} m={m}",
            lambda src=src, dst=dst: S.cli.run(["count", "-i", src, "-o", dst]),
            lambda out, vs=vs, es=es: _check_count(ck(), int(out), vs, es),
            cli=True, keep=lambda code, dst=dst: _read(dst),
            digest=lambda code, dst=dst: _read(dst), heavy=heavy,
        ))

    for i, (size, heavy) in enumerate(SCALE_CLI_BLOCKS[:1] if tiny else SCALE_CLI_BLOCKS):
        g = _block_chain(S, rng, size // shrink)
        vs, es = _data(g)
        src = os.path.join(workdir, f"blocks{i}.json")
        dst = os.path.join(workdir, f"blocks{i}.out")
        _write(src, json_text(vs, es))
        ops.append(Op(
            f"cli blocks m={g.m}",
            lambda src=src, dst=dst: S.cli.run(["blocks", "-i", src, "-o", dst]),
            lambda out, vs=vs, es=es: _check_blocks_doc(ck(), out, vs, es),
            cli=True, keep=lambda code, dst=dst: _read(dst),
            digest=lambda code, dst=dst: _read(dst), heavy=heavy,
        ))

    for n, heavy in [(12, False)] if tiny else SCALE_COUNT:
        g = S.generators.random_connected_graph(n, 3 * n, rng.randrange(1 << 30))
        vs, es = _data(g)
        ops.append(Op(
            f"count n={n} m={3 * n}", lambda g=g: S.spanning_trees.count_spanning_trees(g),
            lambda c, vs=vs, es=es: _check_count(ck(), c, vs, es), heavy=heavy,
        ))

    for kind, size, heavy in [("path", 50, False)] if tiny else SCALE_ISO:
        g1 = _family(S, kind, size)
        g2 = _relabelled(S, g1, rng)
        d1, d2 = _data(g1), _data(g2)
        ops.append(Op(
            f"iso {kind} {size}", lambda g1=g1, g2=g2: gc.are_isomorphic(g1, g2),
            lambda r, d1=d1, d2=d2: (
                ck().check_mapping(*d1, *d2, r[1]) if r[0]
                else ["isomorphic pair reported non-isomorphic"]
            ),
            digest=lambda r: (r[0], hash(tuple(sorted(r[1].items()))) if r[0] else None),
            heavy=heavy,
        ))

    tiny_g = S.generators.random_connected_graph(8, 12, 0)
    tiny_text = edgelist_text(_data(tiny_g)[1])
    src = os.path.join(workdir, "warmup.txt")
    _write(src, tiny_text)
    p = gc.path_graph(10)
    warmups = [
        lambda: gc.to_edgelist(gc.parse_graph(tiny_text)),
        lambda: gc.to_json(tiny_g),
        lambda: gc.block_decomposition(tiny_g),
        lambda: S.spanning_trees.count_spanning_trees(tiny_g),
        lambda: gc.are_isomorphic(p, p),
        lambda: S.cli.run(["count", "-i", src, "-o", os.path.join(workdir, "warmup.out")]),
    ]
    return _finish(ops, warmups, 20.0, 4.0, rng)


def _check_parse(gc, parsed, text, fmt, edges):
    back = gc.to_edgelist(parsed) if fmt == "edgelist" else gc.to_json(parsed)
    problems = [] if back == text else ["parse does not round-trip byte for byte"]
    named = {frozenset((parsed.names[e.u], parsed.names[e.v])) for e in parsed.edges}
    if named != {frozenset((str(u), str(v))) for _, u, v in edges} or parsed.m != len(edges):
        problems.append("parsed edges differ from the text")
    return problems


def _check_count(ck, count, vertices, edges):
    want = ck.tree_count(vertices, edges)
    return [] if count == want else [f"count {count}, exact determinant {want}"]


def _check_blocks_doc(ck, text, vertices, edges):
    doc = json.loads(text)
    return ck.check_blocks(doc["blocks"], doc["cut_vertices"], vertices, edges)


WORKLOADS = {"forward": forward, "recognize": recognize, "scale": scale}
