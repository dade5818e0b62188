"""Tests for the benchmark's own logic.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402
from adagate import cli, controller, index, oracle, selection  # noqa: E402
from tracer import Span, Target, Tracer, self_times_ns, totals_by_name  # noqa: E402


# ------------------------------------------------------------ tail percentile


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    value, percentile = stats.tail(samples)
    assert value == 90.0
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_with_eleven_samples_is_the_smallest():
    samples = [5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, percentile = stats.tail(samples)
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_percentile_rises_with_more_samples():
    _, p_small = stats.tail([1.0] * 50)
    _, p_large = stats.tail([1.0] * 1000)
    assert p_small == pytest.approx(80.0)
    assert p_large == pytest.approx(99.0)


def test_tail_refuses_ten_or_fewer_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


# ------------------------------------------------------------ self time


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, None, "questions")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, 100, name="root"),
        _span(2, 10, 40, parent=1, name="child"),
        _span(3, 15, 25, parent=2, name="grandchild"),
        _span(4, 50, 70, parent=1, name="child"),
    ]
    own = self_times_ns(spans)
    assert own == {1: 50, 2: 20, 3: 10, 4: 20}
    assert sum(own.values()) == 100  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, 0, 100), _span(2, 10, 50, parent=1), _span(3, 30, 60, parent=1)]
    assert self_times_ns(spans)[1] == 50


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, 10, 20), _span(2, 5, 15, parent=1)]
    assert self_times_ns(spans)[1] == 5


def test_totals_by_name_filters_phase():
    spans = [
        Span(1, "a", 0, 10, None, None, "setup"),
        Span(2, "a", 20, 50, None, None, "questions"),
        Span(3, "b", 25, 35, 2, None, "questions"),
    ]
    q = totals_by_name(spans, "questions")
    assert (q["a"].calls, q["a"].total_ns, q["a"].self_ns) == (1, 30, 20)
    assert totals_by_name(spans)["a"].calls == 2


def test_recorded_spans_nest_and_inherit_question_id():
    tracer = Tracer()

    def inner():
        return "done"

    def outer():
        return tracer.call("inner", inner, (), {})

    assert tracer.call("outer", outer, (), {}, qid="q7") == "done"
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["inner"].qid == "q7"
    assert by_name["outer"].start_ns <= by_name["inner"].start_ns <= by_name["inner"].end_ns <= by_name["outer"].end_ns


def test_spans_in_other_threads_are_roots():
    tracer = Tracer()

    def in_thread():
        tracer.call("worker", lambda: None, (), {})

    def outer():
        t = threading.Thread(target=in_thread)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.call("outer", outer, (), {})
    assert {s.name: s.parent for s in tracer.spans}["worker"] is None


# ------------------------------------------------------------ wrappers


def _snapshot(targets):
    return [(t.owner, t.attr, t.owner[t.attr] if isinstance(t.owner, dict) else vars(t.owner)[t.attr]) for t in targets]


def test_wrappers_restore_the_original_functions():
    targets = workloads.adagate_targets([])
    before = _snapshot(targets)
    with Tracer().patched(targets):
        assert controller.score_candidate is not before[[t.attr for t in targets].index("score_candidate")][2]
        assert isinstance(vars(index.VectorIndex)["load"], classmethod)
    after = _snapshot(targets)
    for (owner, attr, raw), (_, _, now) in zip(before, after):
        assert now is raw, f"{owner}.{attr} was not restored"
    assert cli._COMMANDS["run"].__name__ == "_cmd_run"


def test_wrappers_restore_after_an_exception():
    original = selection.select_evidence
    with pytest.raises(RuntimeError):
        with Tracer().patched([Target(selection, "select_evidence", "selection.select_evidence")]):
            assert selection.select_evidence is not original
            raise RuntimeError("boom")
    assert selection.select_evidence is original


def test_wrapped_calls_record_spans_and_return_results():
    tracer = Tracer()
    traces: list[dict] = []
    world = workloads.generate_world(workloads.WorldSpec(n_questions=3, seed=1))
    with tracer.patched(workloads.adagate_targets(traces)):
        idx = index.VectorIndex(index.HashingEmbedder(dim=1 << 12))
        idx.upsert("clean", workloads.corpus.chunk_corpus(world))
        cfg = controller.ControllerConfig(k=3, budget=140)
        tracer.phase = "questions"
        trace = controller.run_example(world[0], cfg, idx, oracle.RuleBasedOracle())
    assert trace.example_id == world[0].id
    assert [t["example_id"] for t in traces] == [world[0].id]
    names = {s.name for s in tracer.spans}
    assert {"index.upsert", "index.embed", "index.query", "controller.run_example", "scoring.score_candidate"} <= names
    run_span = next(s for s in tracer.spans if s.name == "controller.run_example")
    assert all(s.qid == world[0].id for s in tracer.spans if s.phase == "questions")
    assert run_span.parent is None
    assert tracer.counters[("questions", "index.query.scanned")] == idx.size("clean") * sum(
        1 for s in tracer.spans if s.name == "index.query"
    )


# ------------------------------------------------------------ failed_ratio


def test_failed_ratio_counts_error_records_against_attempted():
    records = [{"example_id": "a"}, {"example_id": "b", "error": "boom"}, {"example_id": "c", "error": ""}]
    assert stats.failed_ratio(records) == (2, 3)
    assert stats.failed_ratio([]) == (0, 0)


def test_question_loop_counts_raising_questions_as_failed():
    world = workloads.generate_world(workloads.WorldSpec(n_questions=4, seed=1))

    def ask(example, _pass):
        if example.id == "q001":
            return {"example_id": example.id, "error": "raised"}, None
        return {"example_id": example.id}, 0.001

    loop = workloads.question_loop(world[:2], ask, seconds=0.0, tracer=None)
    assert [r["example_id"] for r in loop.records] == ["q000", "q001"]
    assert stats.failed_ratio(loop.records) == (1, 2)
    assert loop.completed == 1
    assert loop.question_latencies_s() == [0.001]


def test_question_latency_is_the_median_of_successful_asks():
    questions = ["a", "b"]
    loop = workloads.LoopResult(
        questions,
        records=[{}] * 7,
        latencies_s=[5.0, 1.0, 4.0, None, 3.0, 2.0, 0.5],
        wall_s=1.0,
    )
    # a: asks 5, 4, 3, 0.5; b: 1, None (failed), 2
    assert loop.question_latencies_s() == [3.5, 1.5]
    assert loop.first_pass == [{}, {}]


def test_sweep_failures_count_missing_records():
    world = workloads.generate_world(workloads.WorldSpec(n_questions=2, seed=1))
    sweep = workloads.Sweep(Path("."), 0.0, {}, [], [{"example_id": "q000"}, {"example_id": "q001", "error": "x"}])
    failed, attempted = workloads._sweep_failures(world, sweep)
    assert attempted == 2 * len(controller.MODES)
    assert failed == 1 + attempted - 2


# ------------------------------------------------------------ speed probe


def test_probe_scales_by_the_latest_three_samples():
    probe = stats.SpeedProbe()
    nominal = stats.REFERENCE_NOMINAL_S
    probe.samples = [nominal, 2 * nominal, 2 * nominal, 4 * nominal]  # median of the last three: 2x
    assert probe.scale(1.0) == pytest.approx(0.5)


def test_question_loop_rescales_and_leaves_probe_time_out():
    probe = stats.SpeedProbe()

    def ask(example, _pass):
        probe._last = float("-inf")  # force a sample before every question
        return {"example_id": example}, 0.010

    loop = workloads.question_loop(["a"], ask, seconds=0.05, probe=probe)
    assert len(probe.samples) == len(loop.records)
    # the latency is rescaled by the probe; the samples do not count as wall time
    assert loop.latencies_s[-1] == pytest.approx(probe.scale(0.010))
    assert loop.wall_s < 0.5 * sum(probe.samples)


# ------------------------------------------------------------ checks and declaration


def test_check_records_flags_budget_and_unknown_chunks():
    world = workloads.generate_world(workloads.WorldSpec(n_questions=1, seed=1))
    q_tokens = workloads.corpus.count_tokens(world[0].question)
    good = {"example_id": "q000", "input_tokens": q_tokens + workloads.BUDGET, "final_chunk_ids": ["a"]}
    assert workloads.check_records(world, [good], lambda _e: {"a"}) == []
    over = dict(good, input_tokens=q_tokens + workloads.BUDGET + 1)
    assert len(workloads.check_records(world, [over], lambda _e: {"a"})) == 1
    assert len(workloads.check_records(world, [good], lambda _e: {"b"})) == 1
    changed = dict(good, final_chunk_ids=[])
    assert len(workloads.check_records(world, [good, changed], lambda _e: {"a"})) == 1


def test_check_report_compares_csv_accuracy(tmp_path):
    records = [
        {"condition": "noise", "mode": "basic", "correct": True},
        {"condition": "noise", "mode": "basic", "correct": False},
    ]
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("condition,mode,accuracy\nnoise,basic,50.0\n", encoding="utf-8")
    assert workloads.check_report(csv_path, records) == []
    csv_path.write_text("condition,mode,accuracy\nnoise,basic,100.0\n", encoding="utf-8")
    assert len(workloads.check_report(csv_path, records)) == 1


def test_benchmark_json_declares_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_cover_every_declared_per_layer_name():
    metrics = workloads.layer_metrics(Tracer(), [], questions=1, qps_untraced=2.0, qps_traced=1.0)
    assert set(metrics) == {name for name, _, _ in workloads.PER_LAYER}
    assert metrics["trace.overhead_ratio"] == pytest.approx(0.5)
