import json
import random

from stag import build_stag, exchange_diameter, maximal_cliques, param_report
from stag.generators import random_connected_graph, random_two_connected_graph
from stag.params import report_to_json, report_to_text


def test_maximal_cliques_diamond(diamond):
    cliques = maximal_cliques(diamond)
    assert sorted(sorted(c) for c in cliques) == [[0, 1, 2], [0, 2, 3]]
    assert max(map(len, maximal_cliques(diamond))) == 3


def test_exchange_diameter_equals_graph_diameter(c4, k4, theta):
    for g in (c4, k4, theta):
        s = build_stag(g)
        r = param_report(g)
        assert r.diam_aux == exchange_diameter(s)


def test_report_values_c4(c4):
    r = param_report(c4)
    assert r.n == 4 and r.m == 4
    assert r.aux_vertices == 4
    assert r.delta_aux == 3 and r.Delta_aux == 3
    assert r.diam_aux == 1
    assert r.omega_aux == 4
    assert r.circumference_g == 4
    assert r.max_minimal_cut_g == 2
    assert all(ok for ok, _ in r.verdicts.values() if ok is not None)


def test_acyclic_host_skips_clique_lemma(p4):
    r = param_report(p4)
    assert r.aux_vertices == 1
    assert r.circumference_g is None
    ok, _ = r.verdicts["clique_number"]
    assert ok is None  # skipped, not asserted


def test_bounds_hold_on_random_graphs():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(9, n * (n - 1) // 2))
        g = random_connected_graph(n, m, rng.randrange(1 << 30))
        r = param_report(g)
        violated = [k for k, (ok, _) in r.verdicts.items() if ok is False]
        assert violated == []
        assert r.delta_aux >= 2 * (m - n + 1)
        assert r.Delta_aux <= (n - 1) * (m - n + 1)
        assert r.diam_aux <= n - 1


def test_omega_equality_two_connected():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(3, 6)
        m = rng.randint(n, min(9, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        r = param_report(g)
        assert r.omega_aux == max(r.circumference_g, r.max_minimal_cut_g)


def test_report_serializations(k4):
    r = param_report(k4)
    doc = json.loads(report_to_json(r))
    assert doc["n"] == 4 and doc["aux_vertices"] == 16
    text = report_to_text(r)
    assert "clique_number" in text and "diameter" in text
