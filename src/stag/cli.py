"""Command line front end.

Exit codes: 0 ok, 1 not-a-STAG or property violated, 2 input error,
3 resource guard tripped. Formats follow the file extension (.txt edge
list, .json, .dot export only) unless --format overrides."""

import argparse
import json
import sys
import time

from . import oracles
from .aux_graph import build_stag, stag_to_dot, stag_to_json
from .errors import (
    Acyclic,
    Disconnected,
    NotAStag,
    NotMinimal,
    ParseError,
    StagError,
    TooLarge,
    TooManyTrees,
)
from .factorization import prime_factorize
from .generators import random_connected_graph, random_two_connected_graph
from .graph_core import (
    are_isomorphic,
    block_decomposition,
    parse_graph,
    to_dot,
    to_edgelist,
    to_json,
)
from .params import param_report, report_to_json, report_to_text
from .recognition import enumerate_preimages, invert
from .spanning_trees import (
    count_spanning_trees,
    enumerate_spanning_trees,
    serialize_trees,
)

_GUARDS = (TooLarge, TooManyTrees)
_INPUT_ERRORS = (ParseError, Disconnected, OSError, ValueError)


def _fmt_of(path, override):
    if override:
        return override
    if path.endswith(".json"):
        return "json"
    if path.endswith(".dot"):
        return "dot"
    return "edgelist"


def _load_graph(path, override=None):
    fmt = _fmt_of(path, override)
    if fmt == "dot":
        raise ValueError("dot is export-only")
    with open(path, "rb") as fh:
        return parse_graph(fh.read(), fmt)


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return [path]
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    return []


def _graph_text(g, path, override=None):
    fmt = _fmt_of(path or "", override)
    if fmt == "json":
        return to_json(g)
    if fmt == "dot":
        return to_dot(g)
    return to_edgelist(g)


def _cmd_aux(args):
    g = _load_graph(args.input, args.format)
    s = build_stag(g, max_trees=args.max_trees)
    if args.output and _fmt_of(args.output, args.format) == "dot":
        text = stag_to_dot(s)
    else:
        text = stag_to_json(s)
    return "ok", _emit(text, args.output)


def _cmd_count(args):
    g = _load_graph(args.input, args.format)
    if args.oracle:
        value = len(oracles.brute_force_trees(g))
    else:
        value = count_spanning_trees(g)
    return "ok", _emit(f"{value}\n", args.output)


def _cmd_trees(args):
    g = _load_graph(args.input, args.format)
    if args.oracle:
        trees = oracles.brute_force_trees(g)
    else:
        trees = enumerate_spanning_trees(g, max_trees=args.max_trees)
    return "ok", _emit(serialize_trees(trees), args.output)


def _cmd_blocks(args):
    g = _load_graph(args.input, args.format)
    dec = block_decomposition(g)
    doc = {
        "blocks": [sorted(b.edge_ids()) for b in dec.blocks],
        "cut_vertices": sorted(dec.cut_vertices),
        "tree_edges": [list(t) for t in dec.tree_edges],
    }
    return "ok", _emit(json.dumps(doc, indent=2) + "\n", args.output)


def _cmd_factor(args):
    g = _load_graph(args.input, args.format)
    fz = prime_factorize(g, max_n=args.max_n)
    prefix = args.output or "factor"
    paths = []
    for i, f in enumerate(fz.factors):
        path = f"{prefix}_{i}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_edgelist(f))
        paths.append(path)
    coords = {
        str(v): list(coord) for v, coord in sorted(fz.coordinates.items())
    }
    side = f"{prefix}_coords.json"
    with open(side, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(coords, indent=2) + "\n")
    paths.append(side)
    return "ok", paths


def _cmd_invert(args):
    h = _load_graph(args.input, args.format)
    if args.oracle:
        g = oracles.brute_force_is_stag(h)
        if g is None:
            raise NotAStag("no preimage at oracle scale")
    else:
        g = invert(h, max_trees=args.max_trees)
    return "ok", _emit(_graph_text(g, args.output, args.format), args.output)


def _cmd_preimages(args):
    g = _load_graph(args.input, args.format)
    graphs = enumerate_preimages(g, args.budget)
    prefix = args.output or "preimage"
    paths = []
    for i, gi in enumerate(graphs):
        path = f"{prefix}_{i}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_edgelist(gi))
        paths.append(path)
    return "ok", paths


def _cmd_params(args):
    g = _load_graph(args.input, args.format)
    report = param_report(g, max_trees=args.max_trees, max_n=args.max_n)
    if args.output and _fmt_of(args.output, args.format) == "json":
        text = report_to_json(report)
    else:
        text = report_to_text(report)
    paths = _emit(text, args.output)
    violated = any(ok is False for ok, _ in report.verdicts.values())
    return ("not_a_stag" if violated else "ok"), paths


def _cmd_verify_roundtrip(args):
    g = _load_graph(args.input, args.format)
    s = build_stag(g, max_trees=args.max_trees)
    g2 = invert(s.graph, max_trees=args.max_trees)
    s2 = build_stag(g2, max_trees=args.max_trees)
    ok, _ = are_isomorphic(s.graph, s2.graph)
    if not ok:
        raise NotAStag("round trip failed")
    return "ok", _emit(_graph_text(g2, args.output, args.format), args.output)


def _cmd_random(args):
    if args.two_connected:
        g = random_two_connected_graph(args.n, args.m, args.seed)
    else:
        g = random_connected_graph(args.n, args.m, args.seed)
    return "ok", _emit(_graph_text(g, args.output, args.format), args.output)


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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stag", description="spanning tree auxiliary graph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-o", "--output")
        p.add_argument("--format", choices=["edgelist", "json", "dot"])
        p.add_argument("--json", action="store_true", dest="verdict_json")
        if name in ("count", "trees", "invert"):
            p.add_argument("--oracle", action="store_true")
        if name in ("aux", "trees", "invert", "params", "verify-roundtrip"):
            p.add_argument("--max-trees", type=int, default=100_000)
        if name in ("factor", "params"):
            p.add_argument("--max-n", type=int, default=4096 if name == "factor" else 12)
        if name == "random":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--two-connected", action="store_true")
        else:
            p.add_argument("-i", "--input", required=True)
        if name == "preimages":
            p.add_argument("--budget", type=int, default=10)
    return parser


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    start = time.monotonic()
    status = "ok"
    payload = []
    message = None
    code = 0
    try:
        status, payload = _COMMANDS[args.command](args)
        if status != "ok":
            code = 1
    except (NotAStag, NotMinimal, Acyclic) as exc:
        status, message, code = "not_a_stag", str(exc), 1
    except _GUARDS as exc:
        status, message, code = "error", str(exc), 3
    except _INPUT_ERRORS as exc:
        status, message, code = "error", str(exc), 2
    except StagError as exc:
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
