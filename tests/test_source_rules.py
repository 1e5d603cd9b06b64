"""Rules on the source of src/stag, checked on each module's syntax tree."""

import ast
import pathlib
import subprocess
import sys

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


def _imports(name):
    """A match for an import of the module stag.<name>, or of a name from it."""
    def matches(node):
        if isinstance(node, ast.Import):
            return any(a.name == f"stag.{name}" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.module in (name, f"stag.{name}") or (
                node.module in (None, "stag") and any(a.name == name for a in node.names)
            )
        return False

    return matches


def test_no_assert_statements():
    # runtime checks raise errors: python -O drops an assert
    assert _found(lambda node: isinstance(node, ast.Assert)) == []


def test_no_module_imports_the_oracles():
    # the oracles cross-check the library from the tests; the library never calls them
    assert _found(_imports("oracles")) == []


def test_recognition_imports_nothing_from_spanning_trees():
    # the binary matroid that the certificate checks is stag.matroid's
    others = {p.name for p in SRC.glob("*.py")} - {"recognition.py"}
    assert _found(_imports("spanning_trees"), skip=others) == []


def test_every_source_file_parses_as_python_3_10():
    # CI runs 3.10 too: a newer syntax would fail there first
    root = SRC.parent.parent
    failed = []
    for p in sorted(p for top in ("src", "tests", "perfbench") for p in (root / top).rglob("*.py")):
        try:
            ast.parse(p.read_text(encoding="utf-8"), str(p), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{p.relative_to(root)}:{exc.lineno}: {exc.msg}")
    assert failed == []


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


def test_no_module_sorts_a_graphs_edges():
    # Graph lists its edges by ascending id, so no consumer sorts them again
    def sorts_edges(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and any(isinstance(a, ast.Attribute) and a.attr == "edges" for a in node.args)
        )

    assert _found(sorts_edges) == []


# calls that change state shared by the whole process, and so by every
# other caller of the library
PROCESS_GLOBAL = {
    ("sys", "setrecursionlimit"),
    ("sys", "set_int_max_str_digits"),
    ("sys", "setswitchinterval"),
    ("gc", "disable"),
    ("gc", "set_threshold"),
    ("decimal", "getcontext"),
    ("decimal", "setcontext"),
    ("random", "seed"),
    ("signal", "signal"),
}


def _changes_process_state(node):
    if isinstance(node, ast.ImportFrom):
        return any((node.module, a.name) in PROCESS_GLOBAL for a in node.names)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in PROCESS_GLOBAL
    )


def test_no_module_changes_process_global_state():
    # a library call leaves the interpreter as it found it
    assert _found(_changes_process_state) == []


def _calls_itself(node):
    """A function, method or nested function that calls its own name, or
    a method that calls self.<its name> or cls.<its name>; reading an
    attribute of that name is not a call."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(
        isinstance(call, ast.Call) and (
            isinstance(call.func, ast.Name) and call.func.id == node.name
            or isinstance(call.func, ast.Attribute) and call.func.attr == node.name
            and isinstance(call.func.value, ast.Name) and call.func.value.id in ("self", "cls")
        )
        for call in ast.walk(node)
    )


def test_no_function_calls_itself():
    # a recursion one level per vertex or per tree meets the interpreter's
    # recursion limit on a large input, and raising it is process-global state
    assert _found(_calls_itself) == []


# dataclasses pulls in inspect, and it and typing were most of the cost of
# import stag; records are namedtuple subclasses instead
MACHINERY = {"dataclasses", "typing"}


def _imports_machinery(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in MACHINERY for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in MACHINERY


def test_no_module_imports_dataclasses_or_typing():
    assert _found(_imports_machinery) == []


_NO_MACHINERY = """
import sys
sys.path.insert(0, sys.argv[1])
import stag, stag.cli, stag.oracles
print(" ".join(m for m in ("dataclasses", "typing", "inspect") if m in sys.modules))
"""


def test_importing_stag_loads_no_dataclass_typing_or_inspect():
    # -S: no site hooks, so the modules seen are the ones stag imports
    done = subprocess.run([sys.executable, "-S", "-c", _NO_MACHINERY, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# Definitions kept for callers though the library and the bench need not
# name them, each with its reason.
ENTRY_POINTS = {
    "cartesian_product": "builds the products that prime_factorize takes apart",
    "is_two_connected": "the paper's condition for Aux(G) to be prime",
    "SpanningTree.of": "builds a tree from a caller's edge ids and rejects malformed ones",
}


def _definitions(tree):
    """'name' of each module-level function or class and 'Class.name' of
    each of its non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}"


def _named(paths):
    """Every identifier that an ast.Name or an ast.Attribute names in paths."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for p in paths
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_each_definition_is_named_by_the_library_or_bench_or_is_an_entry_point():
    # the library is its jobs: a function that only tests call lives in tests/
    modules = sorted(SRC.glob("*.py"))
    defined = {
        f"{p.stem}.{name}": name
        for p in modules
        for name in _definitions(ast.parse(p.read_text(encoding="utf-8"), str(p)))
    }
    named = _named(p for p in modules if p.name != "__init__.py")
    named |= _named(sorted((SRC.parent.parent / "perfbench").glob("*.py")))
    unreached = [
        where for where, name in defined.items()
        if name.rsplit(".", 1)[-1] not in named and name not in ENTRY_POINTS
    ]
    assert unreached == []
    assert sorted(set(ENTRY_POINTS) - set(defined.values())) == []
    # an entry that the library or the bench names needs no place on the list
    assert sorted(e for e in ENTRY_POINTS if e.rsplit(".", 1)[-1] in named) == []
