"""Rules on the source of src/stag, checked on each module's syntax tree."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stag"

# the modules that may call Graph._trusted: build_stag, the parsers, the generators
TRUSTED_CALLERS = {"aux_graph.py", "graph_core.py", "generators.py"}


def _found(matches, skip=()):
    """'<module>:<line>' of each node that matches, in every src/stag module
    whose file name is not in skip."""
    return [
        f"{p.relative_to(SRC.parent)}:{node.lineno}"
        for p in sorted(SRC.rglob("*.py"))
        if p.name not in skip
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
        if matches(node)
    ]


def _imports_oracles(node):
    if isinstance(node, ast.Import):
        return any(a.name == "stag.oracles" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in ("oracles", "stag.oracles") or (
            node.module in (None, "stag") and any(a.name == "oracles" for a in node.names)
        )
    return False


def test_no_assert_statements():
    # runtime checks raise errors: python -O drops an assert
    assert _found(lambda node: isinstance(node, ast.Assert)) == []


def test_no_module_imports_the_oracles():
    # the oracles cross-check the library from the tests; the library never calls them
    assert _found(_imports_oracles) == []


def _imports_networkx(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "networkx" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "networkx"


def test_only_the_oracles_import_networkx_and_only_inside_a_function():
    # stag has no runtime dependency: import stag, stag.oracles needs no networkx
    assert _found(_imports_networkx, skip={"oracles.py"}) == []
    oracles = ast.parse((SRC / "oracles.py").read_text(encoding="utf-8"))
    nested = {
        id(node)
        for fn in ast.walk(oracles)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    assert [n.lineno for n in ast.walk(oracles) if _imports_networkx(n) and id(n) not in nested] == []


def test_only_build_stag_the_parsers_and_the_generators_call_graph_trusted():
    def reads_trusted(node):
        return isinstance(node, ast.Attribute) and node.attr == "_trusted"

    assert _found(reads_trusted, skip=TRUSTED_CALLERS) == []
