"""Acceptance gate: ten criteria, one printed pass/fail line each.

Shared corpora are session-scoped so the parameter audit (criterion 8)
re-checks exactly the graphs exercised by criteria 1-5."""

import itertools
import random
import time

import pytest

from stag import (
    NotAStag,
    are_isomorphic,
    build_stag,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    enumerate_spanning_trees,
    invert,
    is_prime,
    param_report,
    path_graph,
)
from stag.cli import run
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from stag.graph_core import Graph
from stag.oracles import brute_force_is_stag, brute_force_stag, brute_force_trees
from oracles import same_labeled
from paper_lemmas import (
    fundamental_cycle,
    product_of_block_stags,
    reverse_delete_tree,
    type1_neighbors,
    type2_neighbors,
    witness_edge_for_pair,
)


def _report(capfd, criterion, ok, detail=""):
    tail = f" {detail}" if detail else ""
    with capfd.disabled():
        print(f"\nacceptance criterion {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {criterion} failed {detail}"


def _fixture_graphs():
    return {
        "c3": cycle_graph(3),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "p3": path_graph(3),
        "k4": complete_graph(4),
        "diamond": Graph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        "theta": Graph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)]),
        "bowtie": Graph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
        "triangle_pendant": Graph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)]),
    }


@pytest.fixture(scope="session")
def fixtures():
    return _fixture_graphs()


@pytest.fixture(scope="session")
def corpus_connected():
    rng = random.Random(1001)
    out = []
    while len(out) < 100:
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, min(n + 2, n * (n - 1) // 2))
        out.append(random_connected_graph(n, m, rng.randrange(1 << 30)))
    return out


@pytest.fixture(scope="session")
def corpus_two_connected():
    rng = random.Random(2002)
    out = []
    while len(out) < 50:
        n = rng.randint(3, 6)
        m = rng.randint(n, min(n + 3, n * (n - 1) // 2))
        out.append(random_two_connected_graph(n, m, rng.randrange(1 << 30)))
    return out


@pytest.fixture(scope="session")
def corpus_multiblock():
    rng = random.Random(3003)
    out = []
    while len(out) < 50:
        blocks = rng.randint(2, 3)
        sizes = [rng.randint(3, 4) for _ in range(blocks)]
        g = random_multiblock_graph(sizes, rng.randrange(1 << 30))
        if g.n <= 8 and count_spanning_trees(g) <= 2000:
            out.append(g)
    return out


@pytest.fixture(scope="session")
def audit_pool(fixtures, corpus_connected, corpus_two_connected, corpus_multiblock):
    return (list(fixtures.values()) + corpus_connected
            + corpus_two_connected + corpus_multiblock)


def test_criterion_1_construction(capfd, fixtures, corpus_connected):
    start = time.monotonic()
    checked = 0
    for g in list(fixtures.values()) + corpus_connected:
        fast = build_stag(g)
        slow = brute_force_stag(g)
        assert [t.key for t in fast.trees] == [t.key for t in slow.trees]
        assert same_labeled(fast.graph, slow.graph)  # exact equality
        checked += 1
    elapsed = time.monotonic() - start
    _report(capfd, 1, checked == 109 and elapsed < 60.0,
            f"({checked} graphs, {elapsed:.1f}s < 60s)")


def test_criterion_2_counting(capfd, fixtures):
    frozen = {"c3": 3, "k4": 16, "diamond": 8, "theta": 12, "bowtie": 9}
    ok = True
    for name, g in fixtures.items():
        trees = enumerate_spanning_trees(g)
        ok = ok and count_spanning_trees(g) == len(trees)
    k5 = complete_graph(5)
    frozen_hosts = dict(fixtures, k5=k5)
    for name, want in dict(frozen, k5=125).items():
        g = frozen_hosts[name]
        ok = ok and count_spanning_trees(g) == want
        ok = ok and len(brute_force_trees(g)) == want  # subset-oracle route
    _report(capfd, 2, ok, "(zero tolerance)")


def test_criterion_3_block_product(capfd, corpus_multiblock):
    passed = 0
    for g in corpus_multiblock:
        whole = build_stag(g).graph
        prod = product_of_block_stags(g).graph
        if are_isomorphic(whole, prod)[0]:
            passed += 1
    _report(capfd, 3, passed == 50, f"({passed}/50 isomorphic)")


def test_criterion_4_primality(capfd, corpus_two_connected):
    start = time.monotonic()
    passed = sum(1 for g in corpus_two_connected if is_prime(build_stag(g).graph))
    elapsed = time.monotonic() - start
    _report(capfd, 4, passed == 50 and elapsed < 120.0,
            f"({passed}/50 prime, {elapsed:.1f}s < 120s)")


def test_criterion_5_round_trip(capfd, fixtures, corpus_two_connected):
    minimal = [g for name, g in fixtures.items()
               if name not in ("p3", "triangle_pendant")]
    passed = 0
    total = 0
    for g in minimal + corpus_two_connected:
        total += 1
        h = build_stag(g).graph
        g2 = invert(h)
        if are_isomorphic(build_stag(g2).graph, h)[0]:
            passed += 1
    _report(capfd, 5, passed == total, f"({passed}/{total} verified)")


def test_criterion_6_rejection(capfd, petersen):
    rejects = {
        "p3": path_graph(3),
        "p4": path_graph(4),
        "c6": cycle_graph(6),
        "k13": Graph.from_pairs([(0, 1), (0, 2), (0, 3)]),
        "petersen": petersen,
    }
    agree = 0
    for name, h in rejects.items():
        rejected = False
        try:
            invert(h)
        except NotAStag:
            rejected = True
        if rejected and brute_force_is_stag(h) is None:
            agree += 1
    _report(capfd, 6, agree == 5, f"({agree}/5 reject on both routes)")


def test_criterion_7_witness(capfd):
    rng = random.Random(4004)
    misses = 0
    scans = 0
    for _ in range(20):
        n = rng.randint(3, 6)
        m = rng.randint(n, min(n + 3, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        for e1, e2 in itertools.combinations(g.edge_ids(), 2):
            tree, trace = reverse_delete_tree(g, protected_pair=(e1, e2))
            scans += 1
            try:
                w = witness_edge_for_pair(g, tree, e1, e2)
            except Exception:
                misses += 1
                continue
            cyc = set(fundamental_cycle(g, tree, w))
            if not {e1, e2} <= cyc:
                misses += 1
    _report(capfd, 7, misses == 0, f"({scans} scans, {misses} NoWitness)")


def test_criterion_8_parameter_audit(capfd, audit_pool):
    violated = 0
    for g in audit_pool:
        r = param_report(g)
        if any(ok is False for ok, _ in r.verdicts.values()):
            violated += 1
    _report(capfd, 8, violated == 0,
            f"({len(audit_pool)} graphs, {violated} violations)")


def test_criterion_9_unit_transformations(capfd, fixtures):
    pool = dict(fixtures, c6=cycle_graph(6), k5=complete_graph(5))
    ok = True
    for g in pool.values():
        if g.n > 7:
            continue
        trees = enumerate_spanning_trees(g)
        for t in trees:
            sym = {u.key for u in trees if len(t.edge_set ^ u.edge_set) == 2}
            ok = ok and {u.key for u in type1_neighbors(g, t)} == sym
            ok = ok and {u.key for u in type2_neighbors(g, t)} == sym
    _report(capfd, 9, ok, "(three-way set equality)")


def test_criterion_10_cli_determinism(capfd, tmp_path):
    def produce(tag):
        base = tmp_path / tag
        base.mkdir()
        g = base / "g.txt"
        aux = base / "aux.json"
        pre = base / "pre.txt"
        assert run(["random", "--n", "5", "--m", "7", "--seed", "9",
                    "--two-connected", "-o", str(g)]) == 0
        assert run(["aux", "-i", str(g), "-o", str(aux)]) == 0
        assert run(["invert", "-i", str(aux), "-o", str(pre)]) == 0
        return g.read_bytes(), aux.read_bytes(), pre.read_bytes()

    ok = produce("a") == produce("b")
    _report(capfd, 10, ok, "(byte-identical artifacts)")
