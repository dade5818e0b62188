from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adagate.errors import ParseError, SchemaError, ValidationError
from adagate.evaluate import (
    RESULT_SCHEMA,
    UNDEFINED,
    ExampleResult,
    aggregate,
    evidence_prf,
    read_results,
    render_csv,
    render_table,
)


def result(example_id="e", condition="clean", mode="adagate", correct=True,
           precision=1.0, recall=1.0, f1=1.0, input_tokens=100, docs_passed=2,
           termination_reason="sufficient"):
    return ExampleResult(
        example_id=example_id,
        condition=condition,
        mode=mode,
        correct=correct,
        precision=precision,
        recall=recall,
        f1=f1,
        input_tokens=input_tokens,
        docs_passed=docs_passed,
        termination_reason=termination_reason,
    )


def test_prf_single_gold_selected():
    precision, recall, f1 = evidence_prf({"A"}, {"A", "B"})
    assert (precision, recall) == (1.0, 0.5)
    assert f1 == pytest.approx(0.667, abs=0.005)


def test_prf_perfect_selection():
    assert evidence_prf({"A", "B"}, {"A", "B"}) == (1.0, 1.0, 1.0)


def test_prf_extra_selection():
    precision, recall, f1 = evidence_prf({"A", "B", "C"}, {"A", "B"})
    assert precision == pytest.approx(0.667, abs=0.005)
    assert recall == 1.0
    assert f1 == pytest.approx(0.80, abs=0.005)


def test_prf_duplicate_selection_invariance():
    assert evidence_prf(["A", "A", "B"], {"A", "B"}) == evidence_prf(["A", "B"], {"A", "B"})
    assert evidence_prf(["B", "A"], {"A", "B"}) == evidence_prf(["A", "B"], {"A", "B"})


def test_prf_empty_selection_and_empty_gold():
    assert evidence_prf([], {"A"}) == (0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        evidence_prf({"A"}, set())


titles = st.sets(st.sampled_from(list("ABCDEFGH")), min_size=1, max_size=6)


@given(titles, titles)
def test_prf_bounds_and_extremes(selected, gold):
    precision, recall, f1 = evidence_prf(selected, gold)
    assert 0.0 <= precision <= 1.0
    assert 0.0 <= recall <= 1.0
    if selected <= gold:
        assert precision == 1.0
    if gold <= selected:
        assert recall == 1.0
    if precision > 0 and recall > 0:
        # Harmonic-mean bounds, with slack for float rounding at P == R.
        assert min(precision, recall) - 1e-12 <= f1 <= max(precision, recall) + 1e-12
    expected = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    assert f1 == expected


def test_token_stats_mixed_correctness():
    results = [
        result(example_id="a", input_tokens=100, correct=True),
        result(example_id="b", input_tokens=300, correct=False),
    ]
    [row] = aggregate(results)
    assert row.avg_tokens == 200.0
    assert row.tokens_per_correct == 100.0


def test_token_stats_all_incorrect_is_undefined():
    [row] = aggregate([result(correct=False)])
    assert row.tokens_per_correct is None


def test_token_stats_all_correct_equal_tokens():
    results = [result(example_id=str(i), input_tokens=250) for i in range(4)]
    [row] = aggregate(results)
    assert row.avg_tokens == 250.0
    assert row.tokens_per_correct == 250.0


def test_aggregate_matches_brute_force():
    results = [
        result(example_id="a", correct=True, precision=1.0, recall=0.5, f1=2 / 3, input_tokens=100, docs_passed=1),
        result(example_id="b", correct=False, precision=0.5, recall=1.0, f1=2 / 3, input_tokens=300, docs_passed=3),
        result(example_id="c", condition="noise", correct=True, input_tokens=200, docs_passed=2),
    ]
    rows = aggregate(results)
    assert [(r.condition, r.mode) for r in rows] == [
        ("clean", "adagate"),
        ("noise", "adagate"),
    ]
    clean = rows[0]
    assert clean.n == 2
    assert clean.accuracy == 50.0
    assert clean.precision == pytest.approx((1.0 + 0.5) / 2)
    assert clean.recall == pytest.approx(0.75)
    assert clean.f1 == pytest.approx(2 / 3)
    assert clean.avg_tokens == 200.0
    assert clean.avg_docs == 2.0
    assert clean.tokens_per_correct == 100.0


def test_single_doc_selection_replay_mean_f1():
    # Three two-gold questions, one selected doc each: P=1, R=0.5, F1=0.67.
    rows = [
        result(example_id=str(i), mode="seal_style", precision=p, recall=r, f1=f1)
        for i, (p, r, f1) in enumerate(evidence_prf({"A"}, {"A", "B"}) for _ in range(3))
    ]
    assert aggregate(rows)[0].f1 == pytest.approx(0.67, abs=0.005)


def test_report_renders_header_only_for_empty_results():
    rows = aggregate([])
    assert rows == []
    table = render_table(rows)
    assert table.splitlines()[0].startswith("condition")
    assert len(table.splitlines()) == 1
    csv_text = render_csv(rows)
    assert csv_text.splitlines() == [
        "condition,mode,n,accuracy,precision,recall,f1,avg_tokens,avg_docs,tokens_per_correct"
    ]


def test_csv_undefined_marker_is_empty_cell():
    rows = aggregate([result(correct=False)])
    assert render_csv(rows).splitlines()[1].endswith(",")
    assert render_table(rows).splitlines()[1].endswith(UNDEFINED)


def test_read_results_roundtrip(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [result(example_id="a").to_record(), result(example_id="b").to_record()]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    loaded = read_results([path])
    assert [r.example_id for r in loaded] == ["a", "b"]
    assert aggregate(loaded)[0].n == 2


# ``run`` and the benchmark count a record as failed by its "error" key, whatever the message.
@pytest.mark.parametrize("message", ["boom", ""])
def test_read_results_skips_error_records(tmp_path, message):
    path = tmp_path / "r.jsonl"
    path.write_text(
        json.dumps(result().to_record()) + "\n" + json.dumps({"example_id": "x", "error": message}) + "\n",
        encoding="utf-8",
    )
    assert len(read_results([path])) == 1


def test_read_results_rejects_mixed_schemas(tmp_path):
    path = tmp_path / "r.jsonl"
    good = result().to_record()
    bad = dict(good, schema="result@2", example_id="b")
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_results([path])


def test_read_results_rejects_unknown_schema(tmp_path):
    path = tmp_path / "r.jsonl"
    record = dict(result().to_record(), schema="other@1")
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_results([path])


def test_result_record_missing_field(tmp_path):
    record = result().to_record()
    del record["precision"]
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_results([path])


@pytest.mark.parametrize(
    "field, value",
    [
        ("correct", "false"),  # bool("false") is True
        ("input_tokens", 12.9),  # int() would truncate it
        ("precision", "nan"),  # float() would parse it
        ("precision", 1.5),
        ("docs_passed", -1),
        ("docs_passed", True),
        ("example_id", 7),
        ("termination_reason", None),
    ],
)
def test_result_record_field_of_the_wrong_json_type_is_named(tmp_path, field, value):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(dict(result().to_record(), **{field: value})) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"result record field '{field}' must be"):
        read_results([path])


def test_result_record_accepts_whole_numbers_as_ratios():
    record = dict(result().to_record(), precision=1, recall=0)
    parsed = ExampleResult.from_record(record)
    assert (parsed.precision, parsed.recall) == (1.0, 0.0)
    assert type(parsed.precision) is float


@pytest.mark.parametrize("field", ["example_id", "correct", "f1", "docs_passed", "termination_reason"])
def test_result_record_missing_field_is_named(field):
    record = result().to_record()
    del record[field]
    with pytest.raises(ParseError, match=f"result record missing field '{field}'"):
        ExampleResult.from_record(record)


def test_result_schema_tag():
    assert result().to_record()["schema"] == RESULT_SCHEMA


def test_star_import_binds_every_public_name():
    import adagate

    namespace: dict = {}
    exec("from adagate import *", namespace)
    for name in adagate.__all__:
        assert name in namespace
        assert namespace[name] is getattr(adagate, name)
