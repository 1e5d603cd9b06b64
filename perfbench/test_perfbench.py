"""Tests of the benchmark itself: a tiny-corpus smoke run of every
workload, and the answer checker rejecting planted wrong answers.

    python3 -m pytest perfbench
"""

import io
import json
import time
from types import SimpleNamespace

import pytest

import checks
import corpus
import run
import spans


@pytest.fixture(scope="module")
def S():
    return run.import_stag()


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    out = io.StringIO()
    result = run.run(workload, seed=3, seconds=0.2, trace=0, tiny=True, out=out)
    lines = out.getvalue().splitlines()
    for name, unit in run.UNITS.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.RESULT_METRICS)
    json.dumps(result)


def test_traced_smoke_run_prints_per_module_metrics_and_overhead():
    out = io.StringIO()
    result = run.run("recognize", seed=3, seconds=0.2, trace=1, tiny=True, out=out)
    text = out.getvalue()
    assert "tracing overhead" in text
    for name, metric in result["metrics"].items():
        assert f"{name} " in text and metric["unit"] in text
    assert "trace.overhead_pct" in result["metrics"]
    assert result["metrics"]["recognition.self_ms"]["value"] > 0
    assert result["metrics"]["factorization.factors"]["value"] > 0


def _aux_text(S, g):
    return S.aux_graph.stag_to_json(S.aux_graph.build_stag(g))


def test_checker_rejects_a_preimage_with_one_edge_removed(S):
    g = S.generators.random_two_connected_graph(6, 9, 1)
    h = S.aux_graph.build_stag(g).graph
    h_data = corpus._data(h)
    pre_vertices, pre_edges = corpus._data(S.recognition.invert(h))
    assert checks.check_preimage(pre_vertices, pre_edges, *h_data) == []
    assert checks.check_preimage(pre_vertices, pre_edges[:-1], *h_data) != []


def test_checker_rejects_an_aux_graph_with_one_edge_removed(S):
    g = S.generators.random_two_connected_graph(6, 9, 2)
    vertices, edges = corpus._data(g)
    text = _aux_text(S, g)
    oracle = S.oracles.brute_force_stag(g)
    assert checks.check_aux_json(text, vertices, edges, oracle) == []
    doc = json.loads(text)
    doc["edges"].pop()
    assert checks.check_aux_json(json.dumps(doc), vertices, edges, oracle) != []


def test_checker_rejects_wrong_counts_mappings_and_blocks(S):
    g = S.generators.random_connected_graph(9, 14, 4)
    vertices, edges = corpus._data(g)
    count = S.spanning_trees.count_spanning_trees(g)
    assert checks.tree_count(vertices, edges) == count
    assert checks.tree_count(vertices, edges) != count + 1

    ok, mapping = S.graph_core.are_isomorphic(g, g)
    assert ok and checks.check_mapping(vertices, edges, vertices, edges, mapping) == []
    a, b = max(vertices, key=g.degree), min(vertices, key=g.degree)
    assert g.degree(a) != g.degree(b)
    swapped = dict(mapping)
    swapped[a], swapped[b] = mapping[b], mapping[a]
    assert checks.check_mapping(vertices, edges, vertices, edges, swapped) != []

    dec = S.graph_core.block_decomposition(g)
    blocks = [b.edge_ids() for b in dec.blocks]
    assert checks.check_blocks(blocks, dec.cut_vertices, vertices, edges) == []
    assert checks.check_blocks(blocks[1:], dec.cut_vertices, vertices, edges) != []


@pytest.mark.parametrize("table", [
    "FWD_SMALL", "FWD_MULTI", "FWD_PARAMS", "FWD_LARGE",
    "REC_CHEAP", "REC_HEAVY", "REC_PRODUCT",
])
def test_committed_generator_seeds_give_tree_counts_in_their_window(S, table):
    for shape, lo, hi, seeds in getattr(corpus, table):
        for seed in seeds:
            if table in ("FWD_MULTI", "REC_PRODUCT"):
                g = S.generators.random_multiblock_graph(list(shape), seed)
            else:
                g = S.generators.random_two_connected_graph(*shape, seed)
            assert lo <= S.spanning_trees.count_spanning_trees(g) < hi, (shape, seed)


def test_seeds_change_inputs_not_families_or_sizes(S, tmp_path):
    for workload in ("forward", "recognize"):
        built = [corpus.WORKLOADS[workload](S, seed, str(tmp_path)) for seed in (1, 2)]
        assert len(built[0].ops) == len(built[1].ops)
        assert sorted(op.label.split("#")[0] for op in built[0].ops) == sorted(
            op.label.split("#")[0] for op in built[1].ops)


def test_negative_is_certainly_not_an_auxiliary_graph(S, tmp_path):
    result = corpus.recognize(S, seed=5, workdir=str(tmp_path), tiny=True)
    negatives = [op for op in result.ops if op.negative and not op.cli]
    assert negatives
    for op in negatives:
        with pytest.raises(S.errors.NotAStag):
            op.call()


def test_operation_over_the_limit_times_out(S):
    run.signal.signal(run.signal.SIGALRM, run._alarm)

    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    op = corpus.Op("spin", spin, lambda answer: [])
    status, value, seconds, detail = run.run_op(op, 0.05, S.errors)
    assert (status, value, seconds) == ("timeout", None, 0.05)


def test_latency_is_the_median_scaled_pass_and_a_failure_counts_at_the_limit():
    records = [
        (0, "ok", 0.010, "", 0.5), (0, "ok", 0.030, "", 0.5), (0, "ok", 0.020, "", 0.5),
        (1, "timeout", 0.6, "", 0.5), (1, "ok", 0.2, "", 0.5), (1, "timeout", 0.6, "", 0.5),
    ]
    assert run.latencies(records) == ([0.010, 0.6], {0, 1})
    assert run.latencies(records, scaled=False) == ([0.020, 0.6], {0, 1})
    assert run.speed([run.REF_CAL_S * 2, run.REF_CAL_S * 3, run.REF_CAL_S]) == 0.5


def test_missing_wrap_target_is_reported_absent(S):
    namespace = SimpleNamespace(**{site: SimpleNamespace() for site in spans.SPAN_TARGETS})
    namespace.aux_graph = SimpleNamespace(build_stag=S.aux_graph.build_stag)
    recorder = spans.Recorder()
    recorder.install(namespace)
    try:
        assert "aux_graph.build_stag" not in recorder.absent
        assert "recognition.invert_prime" in recorder.absent
        namespace.aux_graph.build_stag(S.graph_core.cycle_graph(4))
    finally:
        recorder.uninstall()
    assert namespace.aux_graph.build_stag is S.aux_graph.build_stag
    assert [s.fn for s in recorder.spans] == ["aux_graph.build_stag"]
