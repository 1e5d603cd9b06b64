"""Span recorder for the traced run.

stag's modules call each other through names they import, and each
importing module holds its own binding. The recorder replaces those
bindings (and the public entry points the benchmark calls) with wrappers
that record a span: function, call site, start, end, parent span, the
operation that caused it, and whether it returned. Spans stay in memory
until the run writes them out. A wrap target that a later version of stag
no longer has is reported as absent, never as an error.
"""

import time
from collections import Counter

# Bindings wrapped with a span, per stag module (the call site).
SPAN_TARGETS = {
    "cli": (
        "run", "parse_graph", "build_stag", "stag_to_json", "count_spanning_trees",
        "enumerate_spanning_trees", "block_decomposition", "are_isomorphic",
        "invert", "param_report", "prime_factorize", "to_edgelist", "to_json",
    ),
    "recognition": (
        "invert", "invert_prime", "add_chords", "build_stag", "are_isomorphic",
        "prime_factorize", "maximal_cliques", "count_spanning_trees",
        "block_decomposition",
    ),
    "aux_graph": ("build_stag", "stag_to_json", "enumerate_spanning_trees"),
    "spanning_trees": (
        "count_spanning_trees", "enumerate_spanning_trees", "block_decomposition",
    ),
    "factorization": ("prime_factorize", "build_stag", "block_decomposition"),
    "params": ("param_report", "build_stag"),
    "graph_core": ("parse_graph", "are_isomorphic", "block_decomposition"),
    "generators": (
        "random_connected_graph", "random_two_connected_graph", "random_multiblock_graph",
    ),
}
# Bindings that are only counted: they run once per spanning tree, and a
# span each would cost more than the work it measures.
COUNT_TARGETS = {"aux_graph": ("type2_neighbors",)}

# Work counters taken from a call's arguments and result, by function.
MEASURES = {
    "graph_core.parse_graph": lambda args, r: {"parse_edges": r.m},
    "graph_core.are_isomorphic": lambda args, r: {"iso_vertices": args[0].n},
    "spanning_trees.enumerate_spanning_trees": lambda args, r: {"trees": len(r)},
    "aux_graph.build_stag": lambda args, r: {"aux_edges": r.graph.m},
    "spanning_trees.type2_neighbors": lambda args, r: {"exchange_neighbours": len(r)},
    "factorization.prime_factorize": lambda args, r: {"factors": len(r.factors)},
}


class Span:
    __slots__ = ("index", "fn", "site", "start", "end", "parent", "op", "ok")

    def __init__(self, index, fn, site, parent, op):
        self.index, self.fn, self.site, self.parent, self.op = index, fn, site, parent, op
        self.start = self.end = None
        self.ok = False

    @property
    def module(self):
        return self.fn.split(".")[0]

    def to_json(self):
        return {
            "fn": self.fn, "site": self.site, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "ok": self.ok,
        }


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.op = "setup"
        self.absent = []
        self._stack = []
        self._undo = []

    def install(self, S):
        """Wrap every target binding in the stag modules of namespace S."""
        for targets, wrap in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._count)):
            for site, names in targets.items():
                module = getattr(S, site)
                for name in names:
                    fn = getattr(module, name, None)
                    if not callable(fn):
                        if f"{site}.{name}" not in self.absent:
                            self.absent.append(f"{site}.{name}")
                        continue
                    self._undo.append((module, name, fn))
                    setattr(module, name, wrap(fn, site))

    def begin_timed(self):
        """Counters from here on belong to the timed operations."""
        self.counters.clear()

    def uninstall(self):
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()

    def _span(self, fn, site):
        fname = f"{fn.__module__.removeprefix('stag.')}.{fn.__name__}"
        measure = MEASURES.get(fname)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), fname, site, parent, self.op)
            self._stack.append(span.index)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure:
                self.counters.update(measure(args, result))
            return result

        return wrapper

    def _count(self, fn, site):
        fname = f"{fn.__module__.removeprefix('stag.')}.{fn.__name__}"
        measure = MEASURES[fname]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters.update(measure(args, result))
            return result

        return wrapper

    # -- per-module metrics ---------------------------------------------------

    def layer_metrics(self, passes):
        """Per-module metrics of the timed operations, per pass."""
        spans = [s for s in self.spans if s.op != "setup"]
        setup = [s for s in self.spans if s.op == "setup"]
        child_time = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start

        def total(fn, where=lambda s: True):
            return sum(s.end - s.start for s in spans if s.fn == fn and where(s))

        def self_time(pred, pool=spans):
            return sum(s.end - s.start - child_time[s.index] for s in pool if pred(s))

        def calls(fn):
            return sum(1 for s in spans if s.fn == fn)

        def parent_fn(s):
            return self.spans[s.parent].fn if s.parent is not None else None

        chords = [s for s in spans if s.fn == "recognition.add_chords"]
        candidates = sum(1 for s in chords if s.ok)
        ok_parents = {c.parent for c in chords if c.ok}
        accepted = sum(
            1 for s in spans
            if s.fn == "recognition.invert_prime" and s.ok and s.index in ok_parents
        )
        c = self.counters
        ms = 1000.0 / passes
        per = 1.0 / passes
        return {
            "graph_core.parse_ms": (total("graph_core.parse_graph") * ms, "ms"),
            "graph_core.parse_edges": (c["parse_edges"] * per, "count"),
            "graph_core.iso_ms": (total("graph_core.are_isomorphic") * ms, "ms"),
            "graph_core.iso_calls": (calls("graph_core.are_isomorphic") * per, "count"),
            "graph_core.iso_vertices": (c["iso_vertices"] * per, "count"),
            "graph_core.blocks_ms": (total("graph_core.block_decomposition") * ms, "ms"),
            "spanning_trees.count_ms": (total("spanning_trees.count_spanning_trees") * ms, "ms"),
            "spanning_trees.enumerate_ms": (
                total("spanning_trees.enumerate_spanning_trees") * ms, "ms"),
            "spanning_trees.trees": (c["trees"] * per, "count"),
            "aux_graph.build_self_ms": (
                self_time(lambda s: s.fn == "aux_graph.build_stag") * ms, "ms"),
            "aux_graph.build_calls": (calls("aux_graph.build_stag") * per, "count"),
            "aux_graph.exchange_hit_ratio": (
                c["aux_edges"] / c["exchange_neighbours"] if c["exchange_neighbours"] else 0.0,
                "ratio"),
            "aux_graph.serialize_ms": (total("aux_graph.stag_to_json") * ms, "ms"),
            "factorization.factorize_ms": (total("factorization.prime_factorize") * ms, "ms"),
            "factorization.factors": (c["factors"] * per, "count"),
            "recognition.self_ms": (self_time(lambda s: s.module == "recognition") * ms, "ms"),
            "recognition.cliques_ms": (total("params.maximal_cliques",
                                             lambda s: s.site == "recognition") * ms, "ms"),
            "recognition.cliques_calls": (sum(
                1 for s in spans if s.fn == "params.maximal_cliques"
                and s.site == "recognition") * per, "count"),
            "recognition.candidates": (candidates * per, "count"),
            "recognition.candidate_hit_ratio": (
                accepted / candidates if candidates else 0.0, "ratio"),
            "recognition.verify_ms": (sum(
                s.end - s.start for s in spans
                if s.fn in ("aux_graph.build_stag", "graph_core.are_isomorphic")
                and parent_fn(s) == "recognition.invert") * ms, "ms"),
            "params.report_ms": (total("params.param_report") * ms, "ms"),
            "cli.self_ms": (self_time(lambda s: s.module == "cli") * ms, "ms"),
            "generators.ms": (self_time(lambda s: s.module == "generators", setup) * 1000.0,
                              "ms"),
        }

    def to_json(self):
        return {
            "absent": self.absent,
            "counters": dict(self.counters),
            "spans": [s.to_json() for s in self.spans],
        }
