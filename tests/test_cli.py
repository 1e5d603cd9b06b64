import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from stag import (
    Graph,
    ParseError,
    TooManyTrees,
    ValidationFailed,
    build_stag,
    cartesian_product,
    complete_graph,
    cycle_graph,
    invert,
    parse_graph,
    path_graph,
    single_vertex_graph,
    to_dot,
    to_edgelist,
    to_json,
)
from stag.aux_graph import stag_to_json
from stag import block_decomposition, cli
from stag.cli import _build_parser, run
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from stag.oracles import brute_force_is_stag, brute_force_trees
from stag.params import param_report, report_to_text
from stag.spanning_trees import serialize_trees
from test_graph_core import _block_inputs


def _write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def c3_file(tmp_path):
    p = tmp_path / "c3.txt"
    _write(p, "0 1\n1 2\n2 0\n")
    return p


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    _write(p, "0 1\n1 2\n2 3\n")
    return p


def test_aux_writes_json(tmp_path, c3_file, capsys):
    out = tmp_path / "aux.json"
    rc = run(["aux", "-i", str(c3_file), "-o", str(out), "--json"])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "ok"
    assert verdict["payload"] == [str(out)]
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 3
    assert len(doc["edges"]) == 3


def test_aux_writes_an_edge_list_to_a_txt_path(tmp_path, c3_file, capsys):
    out = tmp_path / "aux.txt"
    assert run(["aux", "-i", str(c3_file), "-o", str(out)]) == 0
    g = parse_graph(c3_file.read_bytes())
    assert out.read_text() == to_edgelist(build_stag(g).graph)
    assert run(["aux", "-i", str(c3_file)]) == 0
    assert capsys.readouterr().out == stag_to_json(build_stag(g))


def test_count_stdout(c3_file, capsys):
    assert run(["count", "-i", str(c3_file)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert len(brute_force_trees(parse_graph(c3_file.read_bytes()))) == 3


@pytest.fixture
def k5_chain_file(tmp_path):
    # 2,100 K5 blocks in a chain: 125^2100 trees, 4,404 digits
    p = tmp_path / "k5chain.txt"
    _write(p, "".join(f"{4 * b + x} {4 * b + y}\n"
                      for b in range(2100) for x, y in itertools.combinations(range(5), 2)))
    return p


def test_count_prints_more_digits_than_str_allows(k5_chain_file, capsys):
    assert run(["count", "-i", str(k5_chain_file)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6283beeb9d6edd76c5c51f333de527d14fe606db0deea00589f606717d5debd2")


@pytest.mark.parametrize("command", ["trees", "aux", "params"])
def test_guard_names_more_digits_than_str_allows(k5_chain_file, capsys, command):
    assert run([command, "-i", str(k5_chain_file), "--json"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    count, rest = verdict["message"].split(" ", 1)
    assert rest == "trees exceed guard 100000"
    assert len(count) == 4404 and count.startswith("324360018800213661")


def test_trees_output(tmp_path, c3_file):
    out = tmp_path / "trees.txt"
    assert run(["trees", "-i", str(c3_file), "-o", str(out)]) == 0
    assert out.read_text() == "t: 0,1\nt: 0,2\nt: 1,2\n"


def test_blocks_json(tmp_path, capsys):
    p = tmp_path / "bowtie.txt"
    _write(p, "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n")
    assert run(["blocks", "-i", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["blocks"]) == 2
    assert doc["cut_vertices"] == [2]


# sha256 of the `stag blocks` output for fixed inputs. The digests freeze
# the block order, ascending ids within a block and the tree_edges order.
# A "shuffled" input lists its edges in a seeded random order, with vertex
# names permuted and endpoints swapped at random, so ids follow no pattern.
_BLOCKS_DIGESTS = {
    "chain": ("5f9dc2737a1892e59dbf0d882344592304db74e79fc76163ea4916507e4e40c7",
              lambda: random_multiblock_graph([4, 5, 3, 6, 4], 11)),
    "tree": ("5334b78e4dc78235acb5ad2e59843a3aa0c2bf54953faca98b366864822c9ec7",
             lambda: random_connected_graph(16, 15, 12)),
    "bridges": ("06395c4310374284a891b53f8da07e6b1707a9798dd64ce55cfb985ea9681b0e",
                lambda: random_connected_graph(24, 28, 13)),
    "path": ("812599da6c9fabf7c053554c53298e6c6d079a3350a852fe5c9863686a7d283c",
             lambda: path_graph(9)),
    "shuffled chain": ("f4f9a1f231785603759b78c07c8faec2014f5178f0afdba93aee99191dd90f5a",
                       lambda: random_multiblock_graph([3, 6, 4, 3, 5], 14)),
    "shuffled sparse": ("4b449a26c1dc78dff1b81096e9b9e09a2dca10de83912719607fdcd717af302d",
                        lambda: random_connected_graph(30, 38, 15)),
}


@pytest.mark.parametrize("name", list(_BLOCKS_DIGESTS))
def test_blocks_output_is_pinned(tmp_path, name):
    digest, make = _BLOCKS_DIGESTS[name]
    k = list(_BLOCKS_DIGESTS).index(name)
    g = make()
    lines = list(g.edge_pairs())
    if name.startswith("shuffled"):
        rng = random.Random(100 + k)
        perm = list(g.vertices)
        rng.shuffle(perm)
        rng.shuffle(lines)
        lines = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in lines]
    src, dst = tmp_path / "g.txt", tmp_path / "blocks.json"
    _write(src, "".join(f"{u} {v}\n" for u, v in lines))
    assert run(["blocks", "-i", str(src), "-o", str(dst)]) == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest


def test_blocks_writes_what_json_dumps_writes(tmp_path):
    # the command lays out the document itself, byte for byte as the
    # encoder's indent=2: K1 has three empty lists, K2 one block, the
    # tree cut vertices in every block
    src, dst = tmp_path / "g.txt", tmp_path / "blocks.json"
    for g in [*_block_inputs(), single_vertex_graph(), path_graph(2), random_connected_graph(16, 15, 12)]:
        _write(src, to_edgelist(g))
        assert run(["blocks", "-i", str(src), "-o", str(dst)]) == 0
        dec = block_decomposition(parse_graph(src.read_bytes()))
        doc = {
            "blocks": [sorted(b.edge_ids()) for b in dec.blocks],
            "cut_vertices": sorted(dec.cut_vertices),
            "tree_edges": [list(t) for t in dec.tree_edges],
        }
        assert dst.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"


def _gapped_host():
    rng = random.Random(1919)
    h = random_two_connected_graph(7, 13, 4)
    ids = rng.sample(range(100), h.m)
    return Graph(h.vertices, [(ids[k], e.u, e.v) for k, e in enumerate(h.edges)])


# sha256 of the `stag trees` output, taken when the command listed the keys
# of enumerate_spanning_trees; the brute-force oracle's trees, serialized,
# give the same bytes. The parser numbers edges in input order, so the host with
# gapped ids, in an order unrelated to its edges, is handed to the command
# in place of the parsed file.
_TREES_DIGESTS = {
    "K6": ("8e424b73b0ee19e58dc25db9a8f3707936c558a98b27e4bad2247b3f04336c9d",
           lambda: complete_graph(6)),
    "gapped": ("0315ff80bc000fd7574a0ecac6bc175a54f4e8332f120e7db1d4a1192bc3bd1a",
               _gapped_host),
}


@pytest.mark.parametrize("name", list(_TREES_DIGESTS))
def test_trees_output_is_pinned(tmp_path, monkeypatch, name):
    digest, make = _TREES_DIGESTS[name]
    g = make()
    src, dst = tmp_path / "g.txt", tmp_path / "trees.txt"
    _write(src, to_edgelist(g))
    if name == "gapped":
        monkeypatch.setattr(cli, "_load_graph", lambda path, fmt=None: g)
    assert run(["trees", "-i", str(src), "-o", str(dst)]) == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest
    oracle = serialize_trees(brute_force_trees(g)).encode()
    assert hashlib.sha256(oracle).hexdigest() == digest


def test_invert_roundtrip_via_files(tmp_path, c3_file, capsys):
    aux = tmp_path / "aux.json"
    assert run(["aux", "-i", str(c3_file), "-o", str(aux)]) == 0
    pre = tmp_path / "pre.txt"
    assert run(["invert", "-i", str(aux), "-o", str(pre), "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "ok"
    lines = [ln for ln in pre.read_text().splitlines() if ln.strip()]
    assert len(lines) == 3  # a triangle
    g = invert(parse_graph(aux.read_bytes(), "json"))
    for name, text in (("back.json", to_json(g)), ("back.dot", to_dot(g))):
        assert run(["invert", "-i", str(aux), "-o", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_text() == text


def test_invert_rejects_path(p4_file, capsys):
    rc = run(["invert", "-i", str(p4_file), "--json"])
    assert rc == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "not_a_stag"


def test_invert_oracle_agrees(p4_file, capsys):
    assert run(["invert", "-i", str(p4_file), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "not_a_stag"
    assert brute_force_is_stag(parse_graph(p4_file.read_bytes())) is None


# Every command, run with networkx made unimportable: stag needs nothing
# beyond the standard library, and stag.oracles imports networkx only inside
# its functions.
_NO_NETWORKX = """
import json, sys
sys.modules["networkx"] = None
import stag, stag.oracles
from stag.cli import run
print(json.dumps([run(argv.split()) for argv in [
    "random --n 4 --m 5 -o g.txt",
    "aux -i g.txt -o aux.json",
    "count -i g.txt -o count.txt",
    "trees -i g.txt -o trees.txt",
    "blocks -i g.txt -o blocks.json",
    "factor -i aux.json -o f",
    "invert -i aux.json -o back.txt",
    "preimages -i g.txt --budget 2 -o pre",
    "params -i g.txt -o params.txt",
    "verify-roundtrip -i g.txt -o rt.txt",
]]))
"""


def test_every_command_runs_without_networkx(tmp_path):
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NO_NETWORKX], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    assert codes == [0] * len(cli._COMMANDS), done.stderr
    assert (tmp_path / "count.txt").read_text() == "8\n"  # the diamond


def test_k1_from_random_reads_back_in_every_command(tmp_path, capsys):
    k1 = tmp_path / "k1.txt"
    assert run(["random", "--n", "1", "--m", "0", "-o", str(k1)]) == 0
    assert k1.read_text() == "0\n"
    assert run(["count", "-i", str(k1)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["trees", "-i", str(k1)]) == 0
    assert capsys.readouterr().out.count("\n") == 1  # the one empty tree
    assert run(["blocks", "-i", str(k1)]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == []


def test_aux_of_a_path_inverts_from_its_edge_list(tmp_path, p4_file, capsys):
    aux = tmp_path / "aux.txt"
    assert run(["aux", "-i", str(p4_file), "-o", str(aux)]) == 0
    assert len(aux.read_text().split()) == 1  # one tree, one vertex
    assert run(["invert", "-i", str(aux)]) == 0
    assert capsys.readouterr().out == "0\n"


def test_factor_of_k1_reads_back(tmp_path, capsys):
    k1 = tmp_path / "k1.txt"
    _write(k1, "0\n")
    prefix = tmp_path / "f"
    assert run(["factor", "-i", str(k1), "-o", str(prefix)]) == 0
    assert run(["count", "-i", str(prefix) + "_0.txt"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_factor_writes_files(tmp_path, capsys):
    c4 = tmp_path / "c4.txt"
    _write(c4, "0 1\n1 2\n2 3\n3 0\n")
    prefix = tmp_path / "f"
    rc = run(["factor", "-i", str(c4), "-o", str(prefix), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert str(prefix) + "_0.txt" in payload
    assert str(prefix) + "_coords.json" in payload
    coords = json.loads((tmp_path / "f_coords.json").read_text())
    assert len(coords) == 4


@pytest.mark.parametrize("text", [
    "1 2\n2 3\n3 0\n0 1\n",  # C4 whose names are not its ids
    "".join(f"{v} {u}\n" for u, v in cartesian_product(cycle_graph(3), path_graph(3)).edge_pairs()),
    to_edgelist(build_stag(random_multiblock_graph([3, 4], 0)).graph),
], ids=["C4", "K3xP3", "Aux"])
def test_factor_coordinates_are_in_vertex_names(tmp_path, text):
    src = tmp_path / "g.txt"
    _write(src, text)
    assert run(["factor", "-i", str(src), "-o", str(tmp_path / "f")]) == 0
    coords = json.loads((tmp_path / "f_coords.json").read_text())
    assert list(coords) == list(parse_graph(text).names.values())
    factors = [{frozenset(line.split()) for line in (tmp_path / f"f_{i}.txt").read_text().splitlines()}
               for i in range(len(coords[text.split()[0]]))]
    for u, v in map(str.split, text.splitlines()):
        steps = [(i, frozenset((a, b))) for i, (a, b) in enumerate(zip(coords[u], coords[v])) if a != b]
        assert len(steps) == 1 and steps[0][1] in factors[steps[0][0]], (u, v, steps)


def test_params_text(c3_file, capsys):
    assert run(["params", "-i", str(c3_file)]) == 0
    out = capsys.readouterr().out
    assert "clique_number" in out


@pytest.mark.parametrize(
    "make",
    [
        lambda: cycle_graph(13),
        lambda: cycle_graph(40),
        lambda: random_two_connected_graph(16, 20, 1),
        lambda: random_multiblock_graph([5, 5, 5, 5], 0),
    ],
    ids=["C13", "C40", "2c(16,20,1)", "multiblock(5,5,5,5)"],
)
def test_params_is_bounded_only_by_the_tree_count(tmp_path, capsys, make):
    g = make()
    _write(tmp_path / "g.txt", to_edgelist(g))
    out = tmp_path / "report.json"
    assert run(["params", "-i", str(tmp_path / "g.txt"), "-o", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    doc = json.loads(out.read_text())
    assert doc["n"] == g.n and doc["m"] == g.m
    assert all(v["ok"] for v in doc["verdicts"].values()), doc["verdicts"]


def test_params_has_no_max_n(c3_file):
    assert run(["params", "-i", str(c3_file), "--max-n", "12"]) == 2


def test_factor_refuses_names_an_edge_list_cannot_hold(tmp_path, capsys):
    c4 = tmp_path / "c4.json"
    doc = {"vertices": ["#a", "b", "c", "d"], "edges": [["#a", "b"], ["b", "c"], ["c", "d"], ["d", "#a"]]}
    _write(c4, json.dumps(doc))
    assert run(["factor", "-i", str(c4), "-o", str(tmp_path / "fz"), "--json"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "error" and "'#a'" in verdict["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.json"]


@pytest.mark.parametrize("command, text, blocked", [
    (["factor"], "0 1\n1 2\n2 3\n3 0\n", "out_1.txt"),
    (["preimages", "--budget", "4"], "0 1\n1 2\n2 0\n", "out_2.txt"),
], ids=["factor", "preimages"])
def test_a_failed_write_removes_the_files_written_before_it(tmp_path, capsys, command, text, blocked):
    src = tmp_path / "g.txt"
    _write(src, text)
    (tmp_path / blocked).mkdir()  # a directory where a later output goes
    assert run(command + ["-i", str(src), "-o", str(tmp_path / "out"), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["payload"] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["g.txt", blocked])
    assert (tmp_path / blocked).is_dir()


def test_a_cleanup_that_cannot_remove_a_file_still_raises_the_write_error(tmp_path, monkeypatch):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    remove = os.remove

    def stuck(path):
        if path == str(first):
            raise PermissionError(path)
        remove(path)

    monkeypatch.setattr(os, "remove", stuck)
    third = tmp_path / "missing" / "third.txt"  # its directory does not exist
    with pytest.raises(FileNotFoundError):
        cli._write([(str(first), "a\n"), (str(second), "b\n"), (str(third), "c\n")])
    assert first.read_text() == "a\n" and not second.exists()


def test_verify_roundtrip(c3_file, capsys):
    rc = run(["verify-roundtrip", "-i", str(c3_file), "--json"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[-1])["status"] == "ok"


def test_preimages(tmp_path, c3_file, capsys):
    prefix = tmp_path / "pim"
    rc = run(["preimages", "-i", str(c3_file), "--budget", "4", "-o", str(prefix), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert len(payload) == 4


@pytest.mark.parametrize("text, budget, want", [
    ("a b\nb c\nc a\n", 2, ["a b\nb c\na c\na 3\n", "a b\nb c\na c\nb 3\n"]),
    # the input names a vertex 3, so the new vertex is named 4
    ("3 1\n1 2\n2 3\n", 1, ["3 1\n1 2\n3 2\n3 4\n"]),
], ids=["letters", "a vertex named 3"])
def test_preimages_keep_the_vertex_names(tmp_path, text, budget, want):
    src, prefix = tmp_path / "g.txt", tmp_path / "p"
    _write(src, text)
    assert run(["preimages", "-i", str(src), "--budget", str(budget), "-o", str(prefix)]) == 0
    assert [(tmp_path / f"p_{i}.txt").read_text() for i in range(len(want))] == want
    assert not (tmp_path / f"p_{len(want)}.txt").exists()


def test_preimages_not_minimal(tmp_path, p4_file, capsys):
    rc = run(["preimages", "-i", str(p4_file), "--budget", "2", "--json"])
    assert rc == 1


def test_random_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["random", "--n", "6", "--m", "8", "--seed", "7", "--two-connected"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_random_seed_changes_output(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run(["random", "--n", "7", "--m", "12", "--seed", "1", "-o", str(a)]) == 0
    assert run(["random", "--n", "7", "--m", "12", "--seed", "2", "-o", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_guard_exit_code(tmp_path, capsys):
    k6 = tmp_path / "k6.txt"
    _write(k6, "\n".join(f"{u} {v}" for u in range(6) for v in range(u + 1, 6)) + "\n")
    rc = run(["trees", "-i", str(k6), "--max-trees", "100"])
    assert rc == 3
    aux_k4 = tmp_path / "aux_k4.txt"
    _write(aux_k4, to_edgelist(build_stag(complete_graph(4)).graph))
    assert run(["invert", "-i", str(aux_k4), "--max-trees", "10"]) == 2  # invert has no guard
    k4 = tmp_path / "k4.txt"
    _write(k4, to_edgelist(complete_graph(4)))
    assert run(["verify-roundtrip", "-i", str(k4), "--max-trees", "10"]) == 3


@pytest.mark.parametrize("argv, flag", [
    (["aux", "--max-trees", "-1"], "--max-trees"),
    (["params", "--max-trees", "-2"], "--max-trees"),
    (["factor", "--max-n", "-1"], "--max-n"),
    (["preimages", "--budget", "-3"], "--budget"),
])
def test_a_negative_guard_or_budget_is_an_input_error(tmp_path, capsys, c3_file, argv, flag):
    out = tmp_path / "out"
    assert run([*argv, "-i", str(c3_file), "-o", str(out)]) == 2
    assert f"argument {flag}: must not be negative, got -" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [c3_file]


def test_a_zero_guard_or_budget_is_allowed(tmp_path, capsys, c3_file):
    assert run(["aux", "-i", str(c3_file), "--max-trees", "0"]) == 3  # 3 trees exceed guard 0
    assert run(["factor", "-i", str(c3_file), "--max-n", "0", "-o", str(tmp_path / "f")]) == 3
    assert run(["preimages", "-i", str(c3_file), "--budget", "0", "-o", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    assert run(["aux", "-i", str(c3_file), "--max-trees", "x"]) == 2
    assert "argument --max-trees: invalid int value: 'x'" in capsys.readouterr().err


def test_a_byte_order_mark_reads_in_both_formats(tmp_path, capsys):
    txt, js = tmp_path / "t.txt", tmp_path / "t.json"
    txt.write_bytes(b"\xef\xbb\xbfa b\nb c\nc a\n")
    js.write_bytes(b'\xef\xbb\xbf{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}')
    assert run(["count", "-i", str(txt)]) == 0
    assert run(["count", "-i", str(js)]) == 0
    assert capsys.readouterr().out == "3\n3\n"


def test_verify_roundtrip_has_no_isomorphism_guard(tmp_path, capsys):
    # Aux of this preimage has 7,112 vertices; --max-trees alone bounds it
    g = tmp_path / "g.txt"
    assert run(["random", "--n", "8", "--m", "18", "--two-connected", "-o", str(g)]) == 0
    capsys.readouterr()
    out = tmp_path / "g2.txt"
    assert run(["verify-roundtrip", "-i", str(g), "-o", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_guard_on_a_long_block_chain(tmp_path, capsys):
    # 60 blocks, 361 vertices: the count alone decides the guard
    chain = random_multiblock_graph([7] * 60, 3)
    with pytest.raises(TooManyTrees):
        build_stag(chain)
    p = tmp_path / "chain.txt"
    _write(p, to_edgelist(chain))
    assert run(["aux", "-i", str(p), "--json"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "error"
    assert "exceed guard 100000" in verdict["message"]


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    _write(bad, "a a\n")
    assert run(["count", "-i", str(bad)]) == 2
    assert run(["count", "-i", str(tmp_path / "missing.txt")]) == 2
    dot = tmp_path / "g.dot"
    _write(dot, to_dot(cycle_graph(3)))
    capsys.readouterr()
    assert run(["count", "-i", str(dot)]) == 2
    assert capsys.readouterr().err == "error: dot is export-only\n"


def test_a_stag_error_raised_inside_a_command_is_exit_2(c3_file, capsys, monkeypatch):
    def fail(h):
        raise ValidationFailed("layout: a chord does not close its root circuit")

    monkeypatch.setattr(cli, "invert", fail)
    assert run(["invert", "-i", str(c3_file), "--json"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "error"
    assert verdict["message"] == "layout: a chord does not close its root circuit"


def test_running_out_of_memory_is_a_guard(c3_file, tmp_path, capsys, monkeypatch):
    first = tmp_path / "first.txt"

    def outputs():
        yield str(first), "0 1\n"
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "count", lambda g, args: ("ok", outputs()))
    assert run(["count", "-i", str(c3_file), "--json"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["status"], verdict["message"], verdict["payload"]) == (
        "error", "out of memory", [])
    assert not first.exists()  # the write that ran out removed its file

    def fail(g, args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "count", fail)
    assert run(["count", "-i", str(c3_file)]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_verify_roundtrip_fails_when_the_preimage_has_another_aux(c3_file, tmp_path, capsys, monkeypatch):
    # Aux(C4) is K4, not Aux(C3) = K3, so the rebuilt Aux does not match
    monkeypatch.setattr(cli, "invert", lambda h: cycle_graph(4))
    out = tmp_path / "rt.txt"
    assert run(["verify-roundtrip", "-i", str(c3_file), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "not_a_stag: round trip failed\n"
    assert not out.exists()


def test_flags_a_command_does_not_read_are_rejected(c3_file):
    for name in ("aux", "count", "trees", "invert"):  # one route per command
        assert run([name, "-i", str(c3_file), "--oracle"]) == 2
    assert run(["count", "-i", str(c3_file), "--seed", "1"]) == 2
    for name in cli._COMMANDS:  # the format follows the file name only
        given = ["--n", "3", "--m", "3"] if name == "random" else ["-i", str(c3_file)]
        assert run([name, *given, "--format", "json"]) == 2


def test_one_parser_serves_every_run(tmp_path, capsys):
    diamond = tmp_path / "diamond.txt"
    _write(diamond, "0 1\n1 2\n2 3\n3 0\n0 2\n")
    g = parse_graph(diamond.read_bytes())
    assert run(["aux", "-i", str(diamond), "--budget", "3"]) == 2
    capsys.readouterr()
    aux = tmp_path / "aux.json"
    assert run(["aux", "-i", str(diamond), "-o", str(aux)]) == 0
    assert aux.read_text() == stag_to_json(build_stag(g))
    assert run(["invert", "-i", str(aux)]) == 0
    assert capsys.readouterr().out == to_edgelist(invert(parse_graph(aux.read_bytes(), "json")))
    assert run(["params", "-i", str(diamond), "--json"]) == 0
    report, verdict = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)
    assert report + "\n" == report_to_text(param_report(g))
    verdict = json.loads(verdict)
    assert (verdict["command"], verdict["status"], verdict["payload"]) == ("params", "ok", [])
    assert run(["--help"]) == 0
    assert "spanning tree auxiliary graph toolkit" in capsys.readouterr().out
    assert _build_parser() is _build_parser()


def _rejected_as_parse_error(tmp_path, capsys, data, fmt, where):
    with pytest.raises(ParseError, match=f"^line {where}: "):
        parse_graph(data, fmt)
    path = tmp_path / ("g.json" if fmt == "json" else "g.txt")
    path.write_bytes(data)
    assert run(["count", "-i", str(path), "--json"]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "error"
    assert verdict["message"].startswith(f"line {where}: ")


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    _rejected_as_parse_error(tmp_path, capsys, b"a b\n\xff c\n", "edgelist", 2)


def test_json_edge_that_is_not_a_list_is_a_parse_error(tmp_path, capsys):
    for edges in ([5], ["ab"]):
        doc = {"vertices": ["a", "b"], "edges": edges}
        _rejected_as_parse_error(tmp_path, capsys, json.dumps(doc).encode(), "json", 0)


def test_json_vertices_or_edges_not_a_list_is_a_parse_error(tmp_path, capsys):
    for doc in ({"vertices": "ab", "edges": []}, {"vertices": ["a", "b"], "edges": "ab"}):
        _rejected_as_parse_error(tmp_path, capsys, json.dumps(doc).encode(), "json", 0)


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    _rejected_as_parse_error(tmp_path, capsys, b"[" * 100_000, "json", 0)


def test_dot_export(tmp_path, c3_file):
    out = tmp_path / "aux.dot"
    assert run(["aux", "-i", str(c3_file), "-o", str(out)]) == 0
    assert out.read_text().startswith("graph Aux {")
