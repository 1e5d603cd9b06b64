"""Command line front end.

Each command is a function (g, args) -> (status, outputs) of the input
graph g, None for `random`, the one command without -i; outputs lists
(path, text) in write order, a None path meaning stdout. run() alone
reads the input and writes: every text exists before the first write,
and a failed write removes the files written before it, so a command
that fails leaves no file. Exit codes: 0 ok, 1 not-a-STAG or property
violated, 2 input error, 3 resource guard tripped or out of memory. The
input and the graph outputs of aux, invert, verify-roundtrip and random
follow the file extension (.txt edge list, .json, .dot export only),
params writes JSON only to .json, and the rest keep one format. `blocks`
writes cut vertices as internal ids, not names: 0.. in order of first
appearance."""

import argparse
import functools
import json
import os
import sys
import time

from .aux_graph import StagGraph, build_stag, stag_to_dot, stag_to_json
from .errors import NotAStag, NotMinimal, StagError, TooLarge, TooManyTrees
from .factorization import DEFAULT_MAX_N, prime_factorize
from .generators import random_connected_graph, random_two_connected_graph
from .graph_core import (
    Graph,
    are_isomorphic,
    block_decomposition,
    parse_graph,
    to_dot,
    to_edgelist,
    to_json,
)
from .params import ParamReport, param_report, report_to_json, report_to_text
from .recognition import enumerate_preimages, invert
from .spanning_trees import (
    DEFAULT_MAX_TREES,
    _decimal,
    count_spanning_trees,
    enumerate_spanning_trees,
    serialize_trees,
)


def _count(text):
    """A guard or budget: an int, refused when negative (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _fmt_of(path):
    if path.endswith(".json"):
        return "json"
    if path.endswith(".dot"):
        return "dot"
    return "edgelist"


def _load_graph(path):
    fmt = _fmt_of(path)
    if fmt == "dot":
        raise ValueError("dot is export-only")
    with open(path, "rb") as fh:
        return parse_graph(fh.read(), fmt)


def _write(outputs):
    """Write each (path, text) in order, a None path to stdout with a
    final newline, and return the paths written; a failed write first
    removes the files this call opened, a partly written one too."""
    paths = []
    try:
        for path, text in outputs:
            if path is None:
                sys.stdout.write(text if text.endswith("\n") else text + "\n")
                continue
            with open(path, "w", encoding="utf-8") as fh:
                paths.append(path)
                fh.write(text)
    except BaseException:
        for path in paths:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return paths


# each output format's writer of a Graph, a StagGraph and a ParamReport
_WRITERS = {
    "json": {Graph: to_json, StagGraph: stag_to_json, ParamReport: report_to_json},
    "dot": {Graph: to_dot, StagGraph: stag_to_dot, ParamReport: report_to_text},
    "edgelist": {Graph: to_edgelist, StagGraph: lambda s: to_edgelist(s.graph),
                 ParamReport: report_to_text},
}


def _text(x, path, default="edgelist"):
    """x in the format of path's extension, or in default with no path."""
    return _WRITERS[_fmt_of(path) if path else default][type(x)](x)


def _cmd_aux(g, args):
    s = build_stag(g, max_trees=args.max_trees)
    return "ok", [(args.output, _text(s, args.output, "json"))]


def _cmd_count(g, args):
    return "ok", [(args.output, f"{_decimal(count_spanning_trees(g))}\n")]


def _cmd_trees(g, args):
    trees = enumerate_spanning_trees(g, max_trees=args.max_trees)
    return "ok", [(args.output, serialize_trees(trees))]


def _indented(items, depth):
    """A list as json.dumps(indent=2) lays it out at the given depth, from
    the JSON text of each of its elements."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{'  ' * depth}]"


def _cmd_blocks(g, args):
    """json.dumps(indent=2) of {"blocks": each block's edge ids,
    "cut_vertices": sorted, "tree_edges": [block, cut vertex] pairs}, laid
    out directly: CPython runs an indented dump in its pure-Python encoder."""
    dec = block_decomposition(g)
    blocks = _indented([_indented([str(e.eid) for e in b.edges], 2) for b in dec.blocks], 1)
    cut = _indented(list(map(str, sorted(dec.cut_vertices))), 1)
    tree = _indented([_indented([str(i), str(v)], 2) for i, v in dec.tree_edges], 1)
    text = f'{{\n  "blocks": {blocks},\n  "cut_vertices": {cut},\n  "tree_edges": {tree}\n}}\n'
    return "ok", [(args.output, text)]


def _cmd_factor(g, args):
    fz = prime_factorize(g, max_n=args.max_n)
    prefix = args.output or "factor"
    coords = {g.names[v]: [f.names[c] for f, c in zip(fz.factors, coord)]
              for v, coord in sorted(fz.coordinates.items())}
    outputs = [(f"{prefix}_{i}.txt", to_edgelist(f)) for i, f in enumerate(fz.factors)]
    return "ok", outputs + [(f"{prefix}_coords.json", json.dumps(coords, indent=2) + "\n")]


def _cmd_invert(g, args):
    return "ok", [(args.output, _text(invert(g), args.output))]


def _cmd_preimages(g, args):
    prefix = args.output or "preimage"
    graphs = enumerate_preimages(g, args.budget)
    return "ok", [(f"{prefix}_{i}.txt", to_edgelist(h)) for i, h in enumerate(graphs)]


def _cmd_params(g, args):
    report = param_report(g, max_trees=args.max_trees)
    violated = any(ok is False for ok, _ in report.verdicts.values())
    return ("not_a_stag" if violated else "ok"), [(args.output, _text(report, args.output))]


def _cmd_verify_roundtrip(g, args):
    """A second route, deliberately independent of invert's certificate:
    rebuild Aux of invert's preimage and compare it with Aux(G) by
    are_isomorphic."""
    s = build_stag(g, max_trees=args.max_trees)
    g2 = invert(s.graph)
    s2 = build_stag(g2, max_trees=args.max_trees)
    if not are_isomorphic(s.graph, s2.graph)[0]:
        raise NotAStag("round trip failed")
    return "ok", [(args.output, _text(g2, args.output))]


def _cmd_random(_, args):
    if args.two_connected:
        g = random_two_connected_graph(args.n, args.m, args.seed)
    else:
        g = random_connected_graph(args.n, args.m, args.seed)
    return "ok", [(args.output, _text(g, args.output))]


_COMMANDS = {
    "aux": _cmd_aux,
    "count": _cmd_count,
    "trees": _cmd_trees,
    "blocks": _cmd_blocks,
    "factor": _cmd_factor,
    "invert": _cmd_invert,
    "preimages": _cmd_preimages,
    "params": _cmd_params,
    "verify-roundtrip": _cmd_verify_roundtrip,
    "random": _cmd_random,
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stag", description="spanning tree auxiliary graph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-o", "--output")
        p.add_argument("--json", action="store_true", dest="verdict_json")
        if name in ("aux", "trees", "params", "verify-roundtrip"):
            p.add_argument("--max-trees", type=_count, default=DEFAULT_MAX_TREES)
        if name == "factor":
            p.add_argument("--max-n", type=_count, default=DEFAULT_MAX_N)
        if name == "random":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--two-connected", action="store_true")
        else:
            p.add_argument("-i", "--input", required=True)
        if name == "preimages":
            p.add_argument("--budget", type=_count, default=10)
    return parser


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    start = time.monotonic()
    payload, message = [], None
    try:
        g = _load_graph(args.input) if "input" in args else None
        status, outputs = _COMMANDS[args.command](g, args)
        payload = _write(outputs)
        code = 0 if status == "ok" else 1
    except (NotAStag, NotMinimal) as exc:
        status, message, code = "not_a_stag", str(exc), 1
    except (TooLarge, TooManyTrees) as exc:
        status, message, code = "error", str(exc), 3
    except MemoryError:
        status, message, code = "error", "out of memory", 3
    except (StagError, OSError, ValueError) as exc:
        status, message, code = "error", str(exc), 2
    if args.verdict_json:
        verdict = {
            "command": args.command,
            "status": status,
            "payload": payload,
            "ms": int((time.monotonic() - start) * 1000),
        }
        if message:
            verdict["message"] = message
        print(json.dumps(verdict))
    elif message:
        print(f"{status}: {message}", file=sys.stderr)
    return code


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
