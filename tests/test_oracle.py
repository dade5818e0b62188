from __future__ import annotations

import json

import pytest

from adagate.errors import TransportError
from adagate.oracle import (
    ABSTAIN,
    Fact,
    Gap,
    Ledger,
    LiveOracle,
    LiveOracleConfig,
    RuleBasedOracle,
    SufficiencyVerdict,
    fallback_queries,
    parse_slots,
)

from helpers import FakeResponse, FakeSession, fact_chunk, sized_chunk


def test_extract_empty_evidence(oracle):
    assert len(oracle.extract_ledger([])) == 0


def test_extract_single_markup_fact(oracle):
    chunk = fact_chunk("c0", "Scott Derrickson", "nationality", "American")
    ledger = oracle.extract_ledger([chunk])
    assert len(ledger) == 1
    fact = ledger.facts[0]
    assert (fact.entity, fact.relation, fact.value) == ("Scott Derrickson", "nationality", "American")
    assert fact.confidence == 1.0
    assert fact.source_chunk == "c0"


def test_extract_low_confidence_marker_scopes_to_sentence(oracle):
    from adagate.corpus import make_chunk

    body = "ENT[a] REL[r] VAL[v] ~. ENT[b] REL[s] VAL[w]."
    chunk = make_chunk("c0", "t", body, "ex")
    ledger = oracle.extract_ledger([chunk])
    by_entity = {f.entity: f.confidence for f in ledger.facts}
    assert by_entity == {"a": 0.5, "b": 1.0}


def test_same_tuple_from_two_chunks_kept_per_source(oracle):
    a = fact_chunk("c0", "x", "r", "v")
    b = fact_chunk("c1", "x", "r", "v")
    ledger = oracle.extract_ledger([a, b])
    assert len(ledger) == 2
    assert {f.source_chunk for f in ledger.facts} == {"c0", "c1"}


def test_exact_duplicate_chunk_deduplicated(oracle):
    a = fact_chunk("c0", "x", "r", "v")
    ledger = oracle.extract_ledger([a, a])
    assert len(ledger) == 1


def test_sufficiency_two_literal_slots(oracle):
    question = "same nationality? SLOT[Scott Derrickson|nationality] SLOT[Ed Wood|nationality]"
    full = oracle.extract_ledger(
        [
            fact_chunk("c0", "Scott Derrickson", "nationality", "American"),
            fact_chunk("c1", "Ed Wood", "nationality", "American"),
        ]
    )
    verdict = oracle.assess_sufficiency(question, full)
    assert verdict == SufficiencyVerdict(sufficient=True)

    partial = oracle.extract_ledger([fact_chunk("c0", "Scott Derrickson", "nationality", "American")])
    verdict = oracle.assess_sufficiency(question, partial)
    assert not verdict.sufficient
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("Ed Wood", "nationality")]


def test_sufficiency_empty_ledger_returns_all_literal_slots_as_gaps(oracle):
    question = "q SLOT[a|r1] SLOT[b|r2]"
    verdict = oracle.assess_sufficiency(question, Ledger())
    assert not verdict.sufficient
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("a", "r1"), ("b", "r2")]


def test_sufficiency_bridge_backref_gap_appears_once_resolvable(oracle):
    question = "q SLOT[subj|hop1] SLOT[*1|hop2]"
    # Nothing resolved: only the first hop can be named as a gap.
    verdict = oracle.assess_sufficiency(question, Ledger())
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("subj", "hop1")]
    # First hop resolved: the bridge entity becomes the second gap's subject.
    ledger = oracle.extract_ledger([fact_chunk("c0", "subj", "hop1", "bridge")])
    verdict = oracle.assess_sufficiency(question, ledger)
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("bridge", "hop2")]


def test_gaps_never_satisfiable_by_ledger(oracle):
    question = "q SLOT[a|r1] SLOT[b|r2] SLOT[*1|r3]"
    ledger = oracle.extract_ledger([fact_chunk("c0", "a", "r1", "v1")])
    verdict = oracle.assess_sufficiency(question, ledger)
    for gap in verdict.gaps:
        assert not ledger.matching(gap.entity, gap.relation)


def _query_oracles():
    # The live oracle gets no responses to replay: building queries must not call the model.
    return [RuleBasedOracle(), _live([])]


def test_make_queries_templates():
    gaps = [Gap(entity="X", relation="nationality")]
    for oracle in _query_oracles():
        gap_queries, fallback = oracle.make_queries("who is X? SLOT[X|nationality]", gaps)
        assert gap_queries == ["X nationality"]
        assert fallback
        assert fallback[0] == "who is X? SLOT[X|nationality]"


def test_make_queries_empty_gaps_short_circuits():
    for oracle in _query_oracles():
        assert oracle.make_queries("any question", []) == ([], [])


def test_make_queries_preserves_gap_order():
    gaps = [Gap(entity="b", relation="r2"), Gap(entity="a", relation="r1")]
    for oracle in _query_oracles():
        gap_queries, _ = oracle.make_queries("q SLOT[a|r1]", gaps)
        assert gap_queries == ["b r2", "a r1"]


def test_fallback_queries_keyword_subsets():
    question = "what do we learn about subj007 via SLOT[subj007|rel007a] and then SLOT[*1|rel007b] regarding subj007"
    queries = fallback_queries(question)
    assert queries[0] == question
    assert 1 <= len(queries) <= 3
    for query in queries[1:]:
        assert "SLOT[" not in query


def test_generate_answer_two_hop(oracle):
    question = "q SLOT[subj|hop1] SLOT[*1|hop2]"
    hop1 = fact_chunk("c0", "subj", "hop1", "bridge")
    hop2 = fact_chunk("c1", "bridge", "hop2", "goldanswer")
    assert oracle.generate_answer(question, [hop1, hop2]) == "goldanswer"
    assert oracle.generate_answer(question, [hop1]) == ABSTAIN
    assert oracle.generate_answer(question, []) == ABSTAIN


def test_sufficient_verdict_implies_no_abstain(oracle):
    question = "q SLOT[subj|hop1] SLOT[*1|hop2]"
    evidence = [
        fact_chunk("c0", "subj", "hop1", "bridge"),
        fact_chunk("c1", "bridge", "hop2", "end"),
    ]
    ledger = oracle.extract_ledger(evidence)
    verdict = oracle.assess_sufficiency(question, ledger)
    assert verdict.sufficient
    assert oracle.generate_answer(question, evidence) != ABSTAIN


def test_judge_containment_and_abstain(oracle):
    assert oracle.judge_answer("q", "Animorphs", "Animorphs series") is True
    assert oracle.judge_answer("q", "Pedro Rodriguez", "I don't know") is False
    assert oracle.judge_answer("q", "exact", "exact") is True
    assert oracle.judge_answer("q", "Yes, both American.", "yes both american") is True
    assert oracle.judge_answer("q", "something", "") is False


def test_sufficient_verdict_cannot_carry_gaps():
    with pytest.raises(ValueError):
        SufficiencyVerdict(sufficient=True, gaps=(Gap(entity="x", relation="r"),))


def test_parse_slots():
    slots = parse_slots("q SLOT[Scott Derrickson|nationality] SLOT[*1|born]")
    assert [(s.entity_ref, s.relation) for s in slots] == [
        ("Scott Derrickson", "nationality"),
        ("*1", "born"),
    ]
    assert slots[0].backref() is None
    assert slots[1].backref() == 1


def test_novelty_fraction(oracle):
    chunk = fact_chunk("c0", "a", "r1", "v")
    empty = Ledger()
    assert oracle.novelty(chunk, empty) == 1.0
    ledger = oracle.extract_ledger([chunk])
    assert oracle.novelty(chunk, ledger) == 0.0
    plain = sized_chunk("c1", 10)
    assert oracle.novelty(plain, empty) == 0.0


class _FakeResponse:
    def __init__(self, status_code: int, content: str | None = None):
        self.status_code = status_code
        self._content = content
        self.text = content or ""

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


def _live(responses) -> LiveOracle:
    return LiveOracle(LiveOracleConfig(url="http://svc/v1"), session=FakeSession(responses))


def test_live_oracle_parses_fact_lines():
    lines = "\n".join(
        [
            json.dumps({"entity": "a", "relation": "r", "value": "v", "confidence": 0.9}),
            "garbage that is not json",
        ]
    )
    live = _live([_FakeResponse(200, lines)])
    ledger = live.extract_ledger([fact_chunk("c0", "a", "r", "v")])
    assert len(ledger) == 1
    assert ledger.facts[0].confidence == 0.9
    assert live.warnings  # malformed line degraded gracefully


def test_live_oracle_temperature_pinned_to_zero():
    live = _live([_FakeResponse(200, "ok")])
    live.generate_answer("q", [])
    assert live._session.calls[0]["json"]["temperature"] == 0


def test_live_oracle_retries_then_raises():
    live = _live([_FakeResponse(503), _FakeResponse(503), _FakeResponse(503)])
    with pytest.raises(TransportError) as exc:
        live.generate_answer("q", [])
    assert exc.value.retriable


def test_live_judge_parses_yes_no():
    assert _live([_FakeResponse(200, "Yes.")]).judge_answer("q", "g", "p") is True
    assert _live([_FakeResponse(200, "no")]).judge_answer("q", "g", "p") is False


def test_ledger_matching_prefers_confidence_then_deterministic(oracle):
    ledger = Ledger()
    ledger.add(Fact("e", "r", "v2", 0.5, "c1"))
    ledger.add(Fact("e", "r", "v1", 1.0, "c2"))
    ledger.add(Fact("e", "r", "v0", 1.0, "c3"))
    best = ledger.matching("E", "R")
    assert (best[0].value, best[0].confidence) == ("v0", 1.0)


def test_trace_carries_only_its_own_runs_warnings(fixture_examples, fixture_index):
    from adagate.controller import ControllerConfig, run_example

    malformed = FakeResponse(200, {"choices": []})
    clean = FakeResponse(200, {"choices": [{"message": {"content": "Paris"}}]})
    live = LiveOracle(LiveOracleConfig(url="http://svc/v1"), session=FakeSession([malformed, clean]))
    config = ControllerConfig(mode="basic", k=2)
    first = run_example(fixture_examples[0], config, fixture_index, live)
    second = run_example(fixture_examples[1], config, fixture_index, live)
    assert len(first.warnings) == 1 and first.warnings[0].startswith("malformed completion payload")
    assert second.final_answer == "Paris"
    assert second.warnings == []


def test_malformed_completion_is_logged(tmp_path):
    log = tmp_path / "oracle.jsonl"
    config = LiveOracleConfig(url="http://svc/v1", log_path=str(log))
    live = LiveOracle(config, session=FakeSession([FakeResponse(200, {"choices": []})]))
    assert live.generate_answer("q", []) == ABSTAIN
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["response"] == {"choices": []}
    assert entries[0]["request"]["messages"][0]["role"] == "user"
