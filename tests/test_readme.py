import pathlib
import re
import shlex

from stag.cli import run

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_example_runs():
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [ln for code in _blocks("sh") for ln in code.splitlines() if ln.startswith("stag ")]
    assert len(lines) >= 10
    for line in lines:
        assert run(shlex.split(line, comments=True)[1:]) == 0, (line, capsys.readouterr())
