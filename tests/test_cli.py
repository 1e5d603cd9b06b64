import json

import pytest

from stag import ParseError, build_stag, complete_graph, parse_graph, to_edgelist
from stag.cli import run


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


def test_count_stdout(c3_file, capsys):
    assert run(["count", "-i", str(c3_file)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["count", "-i", str(c3_file), "--oracle"]) == 0
    assert capsys.readouterr().out.strip() == "3"


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


def test_invert_roundtrip_via_files(tmp_path, c3_file, capsys):
    aux = tmp_path / "aux.json"
    assert run(["aux", "-i", str(c3_file), "-o", str(aux)]) == 0
    pre = tmp_path / "pre.txt"
    assert run(["invert", "-i", str(aux), "-o", str(pre), "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "ok"
    lines = [ln for ln in pre.read_text().splitlines() if ln.strip()]
    assert len(lines) == 3  # a triangle


def test_invert_rejects_path(p4_file, capsys):
    rc = run(["invert", "-i", str(p4_file), "--json"])
    assert rc == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "not_a_stag"


def test_invert_oracle_agrees(p4_file, capsys):
    rc = run(["invert", "-i", str(p4_file), "--oracle", "--json"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["status"] == "not_a_stag"


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


def test_params_text(c3_file, capsys):
    assert run(["params", "-i", str(c3_file)]) == 0
    out = capsys.readouterr().out
    assert "clique_number" in out


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
    rc = run(["invert", "-i", str(aux_k4), "--max-trees", "10"])
    assert rc == 3


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    _write(bad, "a a\n")
    assert run(["count", "-i", str(bad)]) == 2
    assert run(["count", "-i", str(tmp_path / "missing.txt")]) == 2


def test_flags_a_command_does_not_read_are_rejected(c3_file):
    assert run(["aux", "-i", str(c3_file), "--oracle"]) == 2
    assert run(["count", "-i", str(c3_file), "--seed", "1"]) == 2


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
