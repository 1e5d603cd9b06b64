"""The golden corpus: what each `stag` command leaves behind on seeded inputs.

Each case is an argv for stag.cli.run and a recipe that names its input.
A recipe is a Python expression over the functions in RECIPES, such as
`swap(aux(two_connected(7, 10, 3)), 1)`; it evaluates to the input graph,
or to the input text for text(...). There is no file per input.

A case's digest is the sha256 of its record: the exit code, stdout,
stderr (which holds the message on a non-zero exit), and every file the
command wrote, in payload order, each under its name. run() is called
without --json, whose "ms" field varies.

tests/golden_digests.txt holds one line per case: argv, recipe and digest,
tab separated. tests/test_golden.py recomputes every line. After an
intended output change, rewrite the file with

    PYTHONPATH=src:tests python tests/golden.py

and list every line that changed, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import os
import pathlib
import random
import sys

from binary_matroids import F7, R10, basis_graph, bases, crafted_negative, dual, one_flip_basis_graph
from stag import (
    Graph,
    build_stag,
    cartesian_product,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    path_graph,
    single_vertex_graph,
    to_edgelist,
    to_json,
)
from stag.cli import run
from stag.generators import random_connected_graph, random_multiblock_graph, random_two_connected_graph
from test_factorization import _mobius_ladder, _twisted

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.txt")

# -- recipes -------------------------------------------------------------------

MATROIDS = {
    "F7": F7,
    "F7*": dual(F7, 3),
    "R10": R10,
    "C3+1": [1, 2, 3, 3],  # the triangle with one element doubled
    "C4+1": [1, 2, 4, 7, 7],
}


def _perturbed(g, seed, drop, extra):
    """g less `drop` edges and plus `extra` non-edges, drawn by
    random.Random(seed); the vertices stay."""
    rng = random.Random(seed)
    pairs = list(g.edge_pairs())
    for _ in range(drop):
        pairs.pop(rng.randrange(len(pairs)))
    have = set(pairs) | set(g.edge_pairs())
    while extra:
        u, v = sorted(rng.sample(g.vertices, 2))
        if (u, v) not in have:
            pairs.append((u, v))
            have.add((u, v))
            extra -= 1
    return Graph(g.vertices, [(k, u, v) for k, (u, v) in enumerate(pairs)])


RECIPES = {
    "k1": single_vertex_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "pairs": Graph.from_pairs,
    "connected": random_connected_graph,
    "two_connected": random_two_connected_graph,
    "multiblock": random_multiblock_graph,
    "aux": lambda g: build_stag(g).graph,
    "delete": lambda g, seed: _perturbed(g, seed, 1, 0),
    "add": lambda g, seed: _perturbed(g, seed, 0, 1),
    "swap": lambda g, seed: _perturbed(g, seed, 1, 1),
    "crafted": crafted_negative,
    "one_flip": one_flip_basis_graph,
    "matroid": lambda name: basis_graph(bases(MATROIDS[name])),
    "uniform": lambda r, n: basis_graph(list(itertools.combinations(range(n), r))),
    "product": cartesian_product,
    "twisted": _twisted,
    "mobius": _mobius_ladder,
    "text": lambda text: text,
}
RECIPES = {name: functools.cache(f) for name, f in RECIPES.items()}


def make(recipe):
    """The input a recipe names: a Graph, or a str for text(...)."""
    return eval(recipe, {"__builtins__": {}}, RECIPES)


# -- one case --------------------------------------------------------------------


def _payload_order(name):
    """Files in the order run() lists them: an -o file alone, prefix_0,
    prefix_1, ... by number, and prefix_coords.json last."""
    return name.endswith("_coords.json"), len(name), name


def record(argv, recipe, workdir):
    """Run `stag <argv>` in workdir, on the input of recipe written to the
    file that -i names, and return the sha256 of what it leaves. Every
    path in argv is a name inside workdir; workdir is left empty."""
    workdir = pathlib.Path(workdir)
    tokens = argv.split()
    source = tokens[tokens.index("-i") + 1] if "-i" in tokens else None
    if source is not None:
        data = make(recipe)
        if not isinstance(data, str):
            data = to_json(data) if source.endswith(".json") else to_edgelist(data)
        (workdir / source).write_text(data, encoding="utf-8")
    paths = [str(workdir / t) if k and tokens[k - 1] in ("-i", "-o") else t for k, t in enumerate(tokens)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(paths)
    h = hashlib.sha256(f"exit {code}\n".encode())
    for tag, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        data = text.encode()
        h.update(f"{tag} {len(data)}\n".encode() + data)
    for name in sorted(os.listdir(workdir), key=_payload_order):
        path = workdir / name
        if name != source:
            data = path.read_bytes()
            h.update(f"file {name} {len(data)}\n".encode() + data)
        path.unlink()
    return h.hexdigest()


# -- the corpus ------------------------------------------------------------------


def _audit_pool():
    """Criterion 8's pool (tests/test_acceptance.py) as recipes: the nine
    fixtures, then the seeded connected, 2-connected and multi-block corpora."""
    pool = [
        "cycle(3)", "cycle(4)", "cycle(5)", "path(3)", "complete(4)",
        "pairs(((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))",
        "pairs(((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)))",
        "pairs(((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)))",
        "pairs(((0, 1), (1, 2), (2, 0), (2, 3)))",
    ]
    rng = random.Random(1001)
    for _ in range(100):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, min(n + 2, n * (n - 1) // 2))
        pool.append(f"connected({n}, {m}, {rng.randrange(1 << 30)})")
    rng = random.Random(2002)
    for _ in range(50):
        n = rng.randint(3, 6)
        m = rng.randint(n, min(n + 3, n * (n - 1) // 2))
        pool.append(f"two_connected({n}, {m}, {rng.randrange(1 << 30)})")
    rng = random.Random(3003)
    kept = 0
    while kept < 50:
        sizes = tuple(rng.randint(3, 4) for _ in range(rng.randint(2, 3)))
        recipe = f"multiblock({sizes}, {rng.randrange(1 << 30)})"
        g = make(recipe)
        if g.n <= 8 and count_spanning_trees(g) <= 2000:
            pool.append(recipe)
            kept += 1
    return pool


def _preimages():
    """Graphs whose Aux the invert cases start from: K1, trees, complete
    graphs, cycles, seeded 2-connected, multi-block and connected graphs,
    each with at most 300 spanning trees."""
    out = ["k1()", "path(2)", "path(5)", "complete(3)", "complete(4)", "complete(5)"]
    out += [f"cycle({k})" for k in range(3, 13)]
    for n, extra, seed in itertools.product(range(4, 9), range(5), range(3)):
        if n + extra <= n * (n - 1) // 2:
            out.append(f"two_connected({n}, {n + extra}, {seed})")
    for sizes, seed in itertools.product([(3, 3), (3, 4), (4, 3), (3, 3, 3), (4, 4), (3, 5)], range(4)):
        out.append(f"multiblock({sizes}, {seed})")
    for n, extra, seed in itertools.product(range(4, 9), (1, 2, 3), range(2)):
        if n - 1 + extra <= n * (n - 1) // 2:
            out.append(f"connected({n}, {n - 1 + extra}, {seed})")
    return [r for r in out if count_spanning_trees(make(r)) <= 300]


def _invert_cases():
    cases = []
    for pre in _preimages():
        a = f"aux({pre})"
        cases.append(("invert -i in.txt", a))
        g = make(a)
        if g.m:
            cases.append(("invert -i in.txt", f"delete({a}, 1)"))
        if g.m < g.n * (g.n - 1) // 2:
            cases.append(("invert -i in.txt", f"add({a}, 2)"))
            if g.m:
                cases.append(("invert -i in.txt", f"swap({a}, 3)"))
    for pre in ("complete(4)", "two_connected(6, 9, 1)", "multiblock((3, 4), 0)"):
        cases.append(("invert -i in.json -o out.json", f"aux({pre})"))
        cases.append(("invert -i in.txt -o out.dot", f"aux({pre})"))
    for (n, m), seed, flip in itertools.product([(10, 14), (12, 16), (20, 30), (30, 45)], range(3), range(3)):
        cases.append(("invert -i in.txt", f"crafted({n}, {m}, {seed}, {flip})"))
    for (n, m), seed, flip in itertools.product([(8, 11), (9, 12)], range(2), range(4)):
        cases.append(("invert -i in.txt", f"one_flip({n}, {m}, {seed}, {flip})"))
    cases += [("invert -i in.txt", f"matroid({name!r})") for name in MATROIDS]
    cases.append(("invert -i in.txt", "uniform(2, 4)"))  # the octahedron
    return cases


def _factor_inputs():
    small = ["path(2)", "path(3)", "path(4)", "cycle(3)", "cycle(4)", "cycle(5)", "complete(4)",
             "pairs(((0, 1), (1, 2), (2, 0), (2, 3)))"]
    out = [f"product({a}, {b})" for a, b in itertools.combinations_with_replacement(small, 2)]
    out += ["product(product(path(2), path(2)), path(2))",
            "product(product(cycle(3), path(3)), cycle(4))",
            "product(mobius(8), product(path(2), path(2)))"]
    rng = random.Random(4004)
    for _ in range(8):
        n = rng.randint(4, 5)
        out.append(f"product(connected({n}, {n + 1}, {rng.randrange(1 << 30)}), "
                   f"connected(4, 4, {rng.randrange(1 << 30)}))")
    out += [f"twisted({big_n}, {k}, {mask})" for big_n, k, mask in
            [(3, 1, 1), (3, 2, 3), (4, 2, 1), (4, 3, 7), (5, 2, 2), (3, 3, 5), (6, 1, 1), (4, 3, 0)]]
    out += ["mobius(8)", "mobius(10)"]
    out += [f"aux(multiblock({sizes}, {seed}))" for sizes, seed in
            itertools.product([(3, 3), (3, 4), (3, 3, 3)], range(2))]
    out += ["aux(two_connected(6, 8, 0))", "aux(cycle(5))", "k1()"]
    return out


def cases():
    """(argv, recipe) of every case, in file order."""
    out = _invert_cases()
    out += [("factor -i in.txt -o f", r) for r in _factor_inputs()]
    pool = _audit_pool()
    out += [("params -i in.txt", r) for r in pool]
    out += [("count -i in.txt", r) for r in pool]
    out += [("params -i in.txt -o out.json", r) for r in ("complete(5)", "two_connected(7, 11, 2)")]
    for r in ("cycle(4)", "complete(4)", "two_connected(6, 9, 1)", "multiblock((3, 4, 3), 2)"):
        out += [("aux -i in.txt", r), ("aux -i in.txt -o out.txt", r),
                ("aux -i in.txt -o out.json", r), ("aux -i in.json -o out.dot", r)]
    for r in ("cycle(4)", "complete(4)", "two_connected(6, 9, 1)", "connected(7, 9, 5)"):
        out += [("trees -i in.txt", r), ("trees -i in.json -o out.txt", r)]
    for r in ("path(4)", "multiblock((3, 5, 4, 3), 1)", "connected(12, 15, 6)", "connected(30, 38, 15)"):
        out += [("blocks -i in.txt", r), ("blocks -i in.txt -o out.json", r)]
    for r in ("cycle(3)", "complete(4)", "two_connected(6, 8, 2)"):
        out += [("preimages -i in.txt --budget 3 -o p", r), ("preimages -i in.txt --budget 12 -o p", r)]
    for r in ("cycle(4)", "complete(4)", "two_connected(6, 9, 1)", "multiblock((3, 4), 1)"):
        out += [("verify-roundtrip -i in.txt", r), ("verify-roundtrip -i in.txt -o out.json", r)]
    for args in ("--n 6 --m 9", "--n 14 --m 16 --seed 3", "--n 1 --m 0", "--n 8 --m 12 --seed 7 --two-connected"):
        out += [(f"random {args}", "-"), (f"random {args} -o out.txt", "-"),
                (f"random {args} -o out.json", "-"), (f"random {args} -o out.dot", "-")]
    # a negative verdict, an input error or a tripped guard in every command
    out += [
        ("aux -i in.txt --max-trees 100", "complete(5)"),
        ("count -i in.txt", "text('a a\\n')"),
        ("count -i in.dot", "cycle(3)"),
        ("trees -i in.txt --max-trees 10", "complete(4)"),
        ("blocks -i in.txt", "pairs(((0, 1), (2, 3)))"),
        ("factor -i in.txt -o f --max-n 8", "product(cycle(3), cycle(3))"),
        ("factor -i in.json -o f", "text('{\"vertices\": [\"#a\", \"b\", \"c\", \"d\"], "
                                   "\"edges\": [[\"#a\", \"b\"], [\"b\", \"c\"], [\"c\", \"d\"], [\"d\", \"#a\"]]}')"),
        ("factor -i in.txt -o f", "pairs(((0, 1), (2, 3)))"),
        ("invert -i in.json", "text('{\"vertices\": [\"a\"]}')"),
        ("invert -i in.txt", "pairs(((0, 1), (2, 3)))"),
        ("preimages -i in.txt --budget 2 -o p", "path(4)"),
        ("preimages -i in.txt -o p", "text('0 1\\n1 2 3\\n')"),
        ("params -i in.txt --max-trees 10", "complete(4)"),
        ("verify-roundtrip -i in.txt --max-trees 10", "complete(4)"),
        ("verify-roundtrip -i in.txt", "pairs(((0, 1), (2, 3)))"),
        ("random --n 3 --m 1", "-"),
        ("random --n 5 --m 4 --two-connected", "-"),
    ]
    return out


def read_digests():
    """[(argv, recipe, digest)] from the digest file, comments skipped."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return [tuple(ln.split("\t")) for ln in lines if ln and not ln.startswith("#")]


def write_digests(workdir):
    header = ("# argv<TAB>recipe<TAB>sha256 of the record; see tests/golden.py, which rewrites this\n"
              "# file: PYTHONPATH=src:tests python tests/golden.py\n")
    rows = [f"{argv}\t{recipe}\t{record(argv, recipe, workdir)}\n" for argv, recipe in cases()]
    DIGESTS.write_text(header + "".join(rows), encoding="utf-8")
    return len(rows)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(f"{write_digests(tmp)} cases written to {DIGESTS}", file=sys.stderr)
