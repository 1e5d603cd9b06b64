"""The digests and exit codes that the CI workflow asserts on the installed
console script, asserted here through stag.cli.run on the same inputs, so
that a change which breaks one of them fails the tests as well."""

import hashlib
import itertools
import json

from binary_matroids import write_crafted, write_one_flip_basis_graph
from stag.cli import run
from test_layout import _deadline


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_aux_of_k7_is_pinned_in_both_formats(tmp_path):
    k7 = tmp_path / "k7.txt"
    assert run(["random", "--n", "7", "--m", "21", "-o", str(k7)]) == 0
    digests = {
        "aux_k7.txt": "d5dfa193718568d59e0c27a6bddcb51387641a4755753643d7728b9e110b7083",
        "aux_k7.json": "90df5bdc087fff06b7f9b31590d3ecca81f28bfe3e18d1459a9aa48ab4cb9788",
    }
    for name, digest in digests.items():
        assert run(["aux", "-i", str(k7), "-o", str(tmp_path / name)]) == 0
        assert _sha256((tmp_path / name).read_bytes()) == digest, name


def test_blocks_of_the_k5_chain_are_pinned(tmp_path, capsys):
    # 2,100 K5 blocks in a chain, each sharing one vertex with the next; the
    # count's digest on the same file is test_cli's
    # test_count_prints_more_digits_than_str_allows
    chain = tmp_path / "k5chain.txt"
    chain.write_text("".join(f"{4 * b + x} {4 * b + y}\n"
                             for b in range(2100) for x, y in itertools.combinations(range(5), 2)))
    assert run(["blocks", "-i", str(chain)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == (
        "80c0a14da3025d543b2a86c3c8d7a7538db9c1492078ec6eb827e8f63cf91a9f")


def _grid_text(c):
    """The c x c grid's edge list as the workflow writes it, rows then columns."""
    return ("".join(f"{i * c + j} {i * c + j + 1}\n" for i in range(c) for j in range(c - 1))
            + "".join(f"{i * c + j} {(i + 1) * c + j}\n" for i in range(c - 1) for j in range(c)))


def test_count_of_the_7x7_grid(tmp_path, capsys):
    grid = tmp_path / "grid7.txt"
    grid.write_text(_grid_text(7))
    assert run(["count", "-i", str(grid)]) == 0
    assert capsys.readouterr().out == "19872369301840986112\n"


def test_count_of_the_30x30_grid_is_pinned_in_60_s(tmp_path, capsys):
    # 433 digits: 853 sparse pivots, then a dense tail of 46 rows
    grid = tmp_path / "grid30.txt"
    grid.write_text(_grid_text(30))
    with _deadline(60):
        assert run(["count", "-i", str(grid)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == (
        "8f7d985519c06f295bdcdb4334bca73f8d172b752d556b6e43cd230c6d255b09")


def test_count_of_the_q7_hypercube(tmp_path, capsys):
    q7 = tmp_path / "q7.txt"
    q7.write_text("".join(f"{v} {v | 1 << k}\n" for v in range(128) for k in range(7) if not v >> k & 1))
    assert run(["count", "-i", str(q7)]) == 0
    assert capsys.readouterr().out == (
        "1538508443498146604871005399943811782815679423930557612575606776447188692484751360000000000"
        "00000000000\n")


def test_a_dense_aux_less_one_edge_is_not_a_stag(tmp_path):
    g7, aux7, cut7 = (tmp_path / name for name in ("g7.txt", "aux7.txt", "cut7.txt"))
    assert run(["random", "--n", "7", "--m", "16", "--two-connected", "--seed", "0", "-o", str(g7)]) == 0
    assert run(["aux", "-i", str(g7), "-o", str(aux7)]) == 0
    cut7.write_text("".join(aux7.read_text().splitlines(keepends=True)[1:]))
    assert run(["invert", "-i", str(cut7)]) == 1


def test_the_crafted_one_flip_negative_is_rejected_in_30_s(tmp_path):
    flip = tmp_path / "flip.txt"
    write_crafted(60, 80, 1, 1, flip)
    with _deadline(30):
        assert run(["invert", "-i", str(flip)]) == 1


def test_a_nearly_graphic_basis_graph_is_rejected_in_5_s(tmp_path):
    series = tmp_path / "series.txt"
    write_one_flip_basis_graph(18, 22, 3, 2, series)
    with _deadline(5):
        assert run(["invert", "-i", str(series)]) == 1


def test_params_takes_a_20000_edge_path_in_20_s(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(20000)))
    with _deadline(20):
        assert run(["params", "-i", str(path)]) == 0


def test_params_takes_a_1000_cycle_in_10_s(tmp_path):
    cycle = tmp_path / "c1000.txt"
    cycle.write_text("".join(f"{i} {(i + 1) % 1000}\n" for i in range(1000)))
    with _deadline(10):
        assert run(["params", "-i", str(cycle)]) == 0


def test_factor_takes_a_4000_leaf_star_in_20_s(tmp_path):
    star = tmp_path / "star.txt"
    star.write_text("".join(f"0 {i}\n" for i in range(1, 4001)))
    with _deadline(20):
        assert run(["factor", "-i", str(star), "-o", str(tmp_path / "star")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["star.txt", "star_0.txt", "star_coords.json"]


def test_factor_refuses_a_name_that_starts_with_a_byte_order_mark(tmp_path):
    # parse_graph drops one leading U+FEFF, so the line "\ufeffa a" would
    # read back as a self-loop at a
    bom = tmp_path / "bomname.json"
    bom.write_text(json.dumps({"vertices": ["\ufeffa", "a", "b"], "edges": [["\ufeffa", "a"], ["a", "b"]]}))
    assert run(["factor", "-i", str(bom), "-o", str(tmp_path / "bomf")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bomname.json"]
