from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adagate.corpus import Chunk
from adagate.errors import TransportError
from adagate.oracle import (
    ABSTAIN,
    FACT_PATTERN,
    Fact,
    Gap,
    Ledger,
    LiveOracle,
    RuleBasedOracle,
    SufficiencyVerdict,
    fallback_queries,
    resolve_slots,
    split_sentences,
)

from helpers import (
    FakeResponse,
    FakeSession,
    fact_chunk,
    reference_resolve_slots,
    reference_seal_select,
    sized_chunk,
)


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
    body = "ENT[a] REL[r] VAL[v] ~. ENT[b] REL[s] VAL[w]."
    chunk = Chunk("c0", "t", body, "ex")
    ledger = oracle.extract_ledger([chunk])
    by_entity = {f.entity: f.confidence for f in ledger.facts}
    assert by_entity == {"a": 0.5, "b": 1.0}


def test_a_sentence_end_needs_whitespace_after_it(oracle):
    # A sentence end needs whitespace after it, so "~." directly followed by "ENT" ends none.
    chunk = Chunk("c0", "t", "ENT[a] REL[r] VAL[v] ~.ENT[b] REL[s] VAL[w].", "ex")
    assert {f.entity: f.confidence for f in oracle.extract_ledger([chunk]).facts} == {"a": 0.5, "b": 0.5}


def test_a_fact_whose_entity_holds_an_opening_bracket_is_in_the_ledger(oracle):
    # "a." is followed by "[", not whitespace: no sentence end cuts the fact, so novelty knows it too.
    chunk = Chunk("c0", "t", "ENT[a.[b] REL[r] VAL[v] ~.", "ex")
    ledger = oracle.extract_ledger([chunk])
    assert [(f.entity, f.relation, f.value, f.confidence) for f in ledger.facts] == [("a.[b", "r", "v", 0.5)]
    assert oracle.novelty(chunk, ledger) == 0.0


def _reference_sentences(text: str) -> list[str]:
    """The non-blank sentences of ``text``, by a scan of the documented rule, one character at a time.

    A ".", "!" or "?" followed by whitespace ends a sentence unless it is
    inside a ``FACT_PATTERN`` match; the whitespace run belongs to neither side.
    """
    inside_a_fact = {at for match in FACT_PATTERN.finditer(text) for at in range(*match.span())}
    sentences, start, at = [], 0, 0
    while at < len(text):
        if text[at] in ".!?" and text[at + 1 : at + 2].isspace() and at not in inside_a_fact:
            sentences.append(text[start : at + 1])
            at += 1
            while text[at : at + 1].isspace():
                at += 1
            start = at
            continue
        at += 1
    sentences.append(text[start:])
    return [sentence for sentence in sentences if sentence.strip()]


def _reference_ledger(text: str) -> list[tuple[str, str, str, float]]:
    """(entity, relation, value, confidence) of each distinct fact, first seen first.

    ``~`` lowers the confidence of its own sentence's facts.
    """
    facts: dict[tuple[str, str, str], float] = {}
    for sentence in _reference_sentences(text):
        confidence = 0.5 if "~" in sentence else 1.0
        for entity, relation, value in FACT_PATTERN.findall(sentence):
            facts.setdefault((entity.strip(), relation.strip(), value.strip()), confidence)
    return [(*fact, confidence) for fact, confidence in facts.items()]


_BRACKETED = st.text(alphabet="ab .!?[~", max_size=6)  # "]" would close the part
_FACT = st.builds(
    "ENT[{}]{}REL[{}]{}VAL[{}]".format, _BRACKETED, st.sampled_from(["", " "]), _BRACKETED, st.just(" "), _BRACKETED
)
_PART = st.one_of(_FACT, st.sampled_from(["the", "town", "3.5", "St.", "~", "[", "]", "a.b"]))
_SENTENCE = st.builds(
    lambda parts, low, end: " ".join(parts) + low + end,
    st.lists(_PART, min_size=1, max_size=3),
    st.sampled_from(["", " ~", "~"]),
    st.sampled_from(["", ".", "!", "?", "..."]),
)
_JOIN = st.sampled_from(["", " ", "  ", "\n", "\t", "\xa0", "\u2028", "\x1c"])


@settings(deadline=None)
@given(
    title=st.sampled_from(["t", "St. Ives", "Is it?", "x ~"]),
    sentences=st.lists(st.tuples(_SENTENCE, _JOIN), max_size=4),
)
@example(title="t", sentences=[("ENT[a] REL[r] VAL[v] ~.", ""), ("ENT[b] REL[s] VAL[w].", "")])
@example(title="t", sentences=[("ENT[a.[b] REL[r] VAL[v] ~.", "")])
@example(title="t", sentences=[("ENT[a. [b] REL[r] VAL[v] ~.", " ")])
def test_ledger_and_novelty_read_the_markup_as_the_reference_does(title, sentences):
    oracle = RuleBasedOracle()
    chunk = Chunk("c0", title, "".join(sentence + join for sentence, join in sentences), "ex")
    assert split_sentences(chunk.text) == _reference_sentences(chunk.text)
    ledger = oracle.extract_ledger([chunk])
    assert [(f.entity, f.relation, f.value, f.confidence) for f in ledger.facts] == _reference_ledger(chunk.text)
    assert oracle.novelty(chunk, ledger) == 0.0


@settings(deadline=None)
@given(sentences=st.lists(st.tuples(_SENTENCE, _JOIN), max_size=4))
@example(sentences=[("ENT[?]REL[?] VAL[? []", "")])
def test_every_fact_lies_inside_one_sentence(sentences):
    text = "".join(sentence + join for sentence, join in sentences)
    spans, at = [], 0
    for sentence in split_sentences(text):
        at = text.index(sentence, at)
        spans.append((at, at + len(sentence)))
        at += len(sentence)
    for match in FACT_PATTERN.finditer(text):
        assert any(start <= match.start() and match.end() <= end for start, end in spans)
    per_sentence = [fact for start, end in spans for fact in FACT_PATTERN.findall(text[start:end])]
    assert per_sentence == FACT_PATTERN.findall(text)


@pytest.mark.parametrize(
    ("body", "facts"),
    [
        ("ENT[a. [b] REL[r] VAL[v].", [("a. [b", 1.0)]),
        ("ENT[a. [b] REL[r] VAL[v]. ENT[c] REL[s] VAL[w] ~.", [("a. [b", 1.0), ("c", 0.5)]),
        ("ENT[a. [b] REL[r] VAL[v] ~.", [("a. [b", 0.5)]),
    ],
)
def test_a_low_confidence_marker_never_drops_a_fact_holding_a_sentence_end(oracle, body, facts):
    ledger = oracle.extract_ledger([Chunk("c0", "t", body, "ex")])
    assert [(f.entity, f.confidence) for f in ledger.facts] == facts


def test_a_sentence_end_inside_brackets_that_are_not_a_fact_ends_the_sentence():
    assert split_sentences("see [note. here] now.") == ["see [note.", "here] now."]


@pytest.mark.parametrize("low", ["", " ~"])
def test_extract_keeps_facts_with_punctuation_inside_brackets(oracle, low):
    body = f"ENT[tower] REL[height] VAL[3.5 m]. ENT[St. Ives] REL[is it?] VAL[yes!]{low}. ENT[c] REL[r] VAL[v]."
    chunk = Chunk("c0", "t", body, "ex")
    ledger = oracle.extract_ledger([chunk])
    confidence = 0.5 if low else 1.0
    assert {(f.entity, f.relation, f.value, f.confidence) for f in ledger.facts} == {
        ("tower", "height", "3.5 m", 1.0),
        ("St. Ives", "is it?", "yes!", confidence),
        ("c", "r", "v", 1.0),
    }
    assert oracle.novelty(chunk, ledger) == 0.0


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
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("b", "r2"), ("v1", "r3")]
    for gap in verdict.gaps:
        assert resolve_slots(f"q SLOT[{gap.entity}|{gap.relation}]", ledger) == [(gap.entity, gap.relation, None)]


def test_resolve_slots_strips_slots_and_follows_back_references():
    question = "q SLOT[ Scott Derrickson |nationality ] SLOT[*3|born] SLOT[*1|born] SLOT[*0|born] SLOT[*4|born]"
    nationality = Fact("scott derrickson", "Nationality", "American", 1.0, "c0")  # differs from the slot in case only
    born = Fact("American", "born", "1966", 1.0, "c1")
    assert resolve_slots(question, Ledger([nationality, born])) == [
        ("Scott Derrickson", "nationality", nationality),
        (None, "born", None),  # *3 names a slot not yet read
        ("American", "born", born),
        (None, "born", None),  # *0 names no slot
        (None, "born", None),  # slot 4 is read, but resolved to nothing
    ]
    # Slots that resolve to nothing raise no gap of their own.
    verdict = RuleBasedOracle().assess_sufficiency(question, Ledger([born]))
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("Scott Derrickson", "nationality")]


def test_resolve_slots_prefers_confidence_then_value_then_source():
    ledger = Ledger()
    ledger.add(Fact("e", "r", "v2", 0.5, "c1"))
    ledger.add(Fact("e", "r", "v1", 1.0, "c2"))
    ledger.add(Fact("e", "r", "v0", 1.0, "c4"))
    ledger.add(Fact("e", "r", "v0", 1.0, "c3"))
    ledger.add(Fact("E", "R", "v0", 1.0, "c3"))  # a full tie: ledger order keeps the first
    [(entity, relation, best)] = resolve_slots("q SLOT[E|R]", ledger)
    assert (entity, relation) == ("E", "R")
    assert best is ledger.facts[3]


def _cased(names: list[str]):
    return st.builds(lambda name, upper: name.upper() if upper else name, st.sampled_from(names), st.booleans())


_NAMES, _RELATIONS = ["x", "y", "z"], ["r", "s"]  # a value may name the next hop's entity
_PAD = st.sampled_from(["", " ", "  "])
_SLOT_ENTITY = st.one_of(_cased(_NAMES), st.builds("*{}".format, st.integers(0, 5)))
_SLOT = st.builds("SLOT[{}{}{}|{}{}{}]".format, _PAD, _SLOT_ENTITY, _PAD, _PAD, _cased(_RELATIONS), _PAD)
_LEDGER_FACT = st.builds(
    Fact, _cased(_NAMES), _cased(_RELATIONS), _cased(_NAMES), st.sampled_from([0.5, 1.0]), st.sampled_from(["c0", "c1"])
)


@settings(deadline=None)
@given(slots=st.lists(_SLOT, max_size=4), facts=st.lists(_LEDGER_FACT, max_size=8))
@example(slots=["SLOT[x|r]", "SLOT[*1|s]"], facts=[Fact("X", "r", "y", 1.0, "c1"), Fact("x", "R", "y", 1.0, "c1")])
@example(slots=["SLOT[ *2 |r]", "SLOT[x|r]", "SLOT[*0|r]"], facts=[Fact("x", "r", "x", 0.5, "c0")])
@example(slots=["SLOT[x|r]"], facts=[Fact("x", "r", "y", 0.5, "c1"), Fact("x", "r", "y", 0.5, "c0")])
def test_resolve_slots_equals_the_parsed_and_sorted_reference(slots, facts):
    from adagate.controller import _seal_select

    question = "which " + " then ".join(slots)
    ledger = Ledger()
    for fact in facts:
        ledger.add(fact)
    reference = reference_resolve_slots(question, ledger)
    assert resolve_slots(question, ledger) == [(entity, slot.relation, fact) for slot, entity, fact in reference]
    retrieved = [sized_chunk(chunk_id, 4) for chunk_id in ("c2", "c1", "c0")]  # c2 sources no fact
    assert _seal_select(question, retrieved, ledger) == reference_seal_select(question, retrieved, ledger)


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
    # Containment is of whole tokens: a longer word or number holding the other is no match.
    assert oracle.judge_answer("q", "Paris", "the city of Paris") is True
    assert oracle.judge_answer("q", "Paris", "Paris, France") is True
    assert oracle.judge_answer("q", "obj100", "obj10") is False
    assert oracle.judge_answer("q", "obj10", "obj100") is False
    assert oracle.judge_answer("q", "Paris", "Parisian") is False
    assert oracle.judge_answer("q", "1990", "19901") is False


def test_sufficient_verdict_cannot_carry_gaps():
    with pytest.raises(ValueError):
        SufficiencyVerdict(sufficient=True, gaps=(Gap(entity="x", relation="r"),))


def test_novelty_fraction(oracle):
    chunk = fact_chunk("c0", "a", "r1", "v")
    empty = Ledger()
    assert oracle.novelty(chunk, empty) == 1.0
    ledger = oracle.extract_ledger([chunk])
    assert oracle.novelty(chunk, ledger) == 0.0
    plain = sized_chunk("c1", 10)
    assert oracle.novelty(plain, empty) == 0.0


def test_live_novelty_counts_capitalised_tokens_the_ledger_does_not_name():
    live = LiveOracle("http://svc/v1", session=FakeSession([]))
    chunk = Chunk("c0", "t", "Paris hosts the Louvre, near Seine.", "ex")
    ledger = Ledger([Fact("Louvre museum", "in", "Paris", 1.0, "c9")])
    assert live.novelty(chunk, Ledger()) == 1.0
    assert live.novelty(chunk, ledger) == pytest.approx(1 / 3)  # only "seine" is unseen
    assert live.novelty(Chunk("c1", "t", "all lower case, no names", "ex"), ledger) == 0.0


class _FakeResponse:
    def __init__(self, status_code: int, content: str | None = None):
        self.status_code = status_code
        self._content = content
        self.text = content or ""
        self.headers = {}

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


def _live(responses) -> LiveOracle:
    return LiveOracle("http://svc/v1", session=FakeSession(responses))


def test_live_oracle_parses_fact_lines():
    lines = "\n".join(
        [
            json.dumps({"passage": 1, "entity": "a", "relation": "r", "value": "v", "confidence": 0.9}),
            "garbage that is not json",
        ]
    )
    live = _live([_FakeResponse(200, lines)])
    ledger = live.extract_ledger([fact_chunk("c0", "a", "r", "v")])
    assert len(ledger) == 1
    assert ledger.facts[0].confidence == 0.9
    assert live.warnings  # malformed line degraded gracefully


def test_live_oracle_attributes_each_fact_to_its_numbered_passage():
    first, second = fact_chunk("c0", "a", "r", "v"), fact_chunk("c1", "b", "s", "w")
    lines = "\n".join(
        json.dumps(record)
        for record in (
            {"passage": 2, "entity": "b", "relation": "s", "value": "w"},
            {"passage": 1, "entity": "a", "relation": "r", "value": "v"},
            {"passage": 3, "entity": "c", "relation": "t", "value": "x"},
            {"passage": 0, "entity": "c", "relation": "t", "value": "x"},
            {"passage": "2", "entity": "c", "relation": "t", "value": "x"},
            {"entity": "c", "relation": "t", "value": "x"},
        )
    )
    live = _live([_FakeResponse(200, lines)])
    ledger = live.extract_ledger([first, second])
    assert [(f.entity, f.source_chunk) for f in ledger.facts] == [("b", "c1"), ("a", "c0")]
    assert len(live.warnings) == 4
    assert all(w.startswith("unparseable ledger line from model") for w in live.warnings)
    prompt = live._session.calls[0]["json"]["messages"][0]["content"]
    assert f"[1] {first.text}\n\n[2] {second.text}" in prompt


def test_live_seal_style_keeps_the_passage_holding_the_best_fact():
    from adagate.controller import _seal_select

    first, second = fact_chunk("c0", "a", "r", "v"), fact_chunk("c1", "b", "s", "w")
    line = json.dumps({"passage": 2, "entity": "b", "relation": "s", "value": "w"})
    live = _live([_FakeResponse(200, line)])
    ledger = live.extract_ledger([first, second])
    assert _seal_select("what is the s of b", [first, second], ledger) == [second]


def test_live_oracle_temperature_pinned_to_zero():
    live = _live([_FakeResponse(200, "ok")])
    live.generate_answer("q", [])
    assert live._session.calls[0]["json"]["temperature"] == 0


def test_live_oracle_retries_then_raises():
    live = _live([_FakeResponse(503), _FakeResponse(503), _FakeResponse(503)])
    with pytest.raises(TransportError) as exc:
        live.generate_answer("q", [])
    assert len(live._session.calls) == 3
    assert str(exc.value) == "oracle endpoint unreachable after 3 attempts: oracle endpoint returned 503"


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": "Paris"}], 5])
def test_live_completion_whose_content_is_not_a_string_is_an_empty_reply(content):
    reply = FakeResponse(200, {"choices": [{"message": {"content": content}}]})
    live = LiveOracle("http://svc/v1", session=FakeSession([reply, reply]))
    assert live.generate_answer("q", []) == ABSTAIN
    assert live.extract_ledger([fact_chunk("c0", "a", "r", "v")]).facts == []
    kind = type(content).__name__
    assert live.warnings == [f"malformed completion payload: content is {kind}, not a string"] * 2


def test_live_ledger_of_no_evidence_sends_no_request():
    live = _live([])
    assert len(live.extract_ledger([])) == 0
    assert live._session.calls == []


def test_live_empty_gap_reply_is_a_sufficient_verdict():
    live = _live([_FakeResponse(200, "\n  \n")])
    assert live.assess_sufficiency("q", Ledger()) == SufficiencyVerdict(sufficient=True)
    assert live.warnings == []


def test_live_judge_parses_yes_no():
    assert _live([_FakeResponse(200, "Yes.")]).judge_answer("q", "g", "p") is True
    assert _live([_FakeResponse(200, "no")]).judge_answer("q", "g", "p") is False


def test_trace_carries_only_its_own_runs_warnings(fixture_examples, fixture_index):
    from adagate.controller import ControllerConfig, run_example

    malformed = FakeResponse(200, {"choices": []})
    clean = FakeResponse(200, {"choices": [{"message": {"content": "Paris"}}]})
    live = LiveOracle("http://svc/v1", session=FakeSession([malformed, clean]))
    config = ControllerConfig(mode="basic", k=2)
    first = run_example(fixture_examples[0], config, fixture_index, live)
    second = run_example(fixture_examples[1], config, fixture_index, live)
    assert len(first.warnings) == 1 and first.warnings[0].startswith("malformed completion payload")
    assert second.final_answer == "Paris"
    assert second.warnings == []


def test_malformed_completion_is_logged(tmp_path):
    log = tmp_path / "oracle.jsonl"
    live = LiveOracle("http://svc/v1", log_path=str(log), session=FakeSession([FakeResponse(200, {"choices": []})]))
    assert live.generate_answer("q", []) == ABSTAIN
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["response"] == {"choices": []}
    assert entries[0]["request"]["messages"][0]["role"] == "user"


def test_live_oracle_unparseable_gap_line_warns_and_keeps_the_others():
    lines = "\n".join(
        [
            json.dumps({"entity": "a", "relation": "born"}),
            "1" * 5000,  # too many digits for an int: a ValueError, not a JSONDecodeError
            json.dumps({"entity": "b", "relation": "died", "rationale": "r"}),
            json.dumps({"entity": None, "relation": 5}),  # str() would make the micro-query "None 5"
            json.dumps({"entity": "c", "relation": ["born"]}),
        ]
    )
    live = _live([_FakeResponse(200, lines)])
    verdict = live.assess_sufficiency("q", Ledger())
    assert [(g.entity, g.relation) for g in verdict.gaps] == [("a", "born"), ("b", "died")]
    assert len(live.warnings) == 3 and live.warnings[0].startswith("unparseable gap line from model: 1111")
    assert live.warnings[1:] == [f"unparseable gap line from model: {line}" for line in lines.splitlines()[3:]]


@pytest.mark.parametrize(
    "change",
    [
        {"entity": None},
        {"relation": ["x"]},
        {"value": None},
        {"value": True},
        {"value": {"v": 1}},
        {"confidence": "0.9"},
        {"confidence": True},
        {"confidence": None},
        {"confidence": float("nan")},
        {"confidence": float("inf")},
        {"confidence": float("-inf")},
    ],
    ids=json.dumps,
)
def test_live_ledger_line_of_the_wrong_json_types_is_a_warning(change):
    # str() and float() would read the entity "None", the relation "['x']" and the confidence 0.9 or 1.0.
    line = json.dumps({"passage": 1, "entity": "a", "relation": "r", "value": "v", "confidence": 0.5, **change})
    live = _live([_FakeResponse(200, line)])
    assert live.extract_ledger([fact_chunk("c0", "a", "r", "v")]).facts == []
    assert live.warnings == [f"unparseable ledger line from model: {line[:80]}"]


def test_live_ledger_line_value_may_be_a_number_and_confidence_a_whole_number():
    lines = "\n".join(
        json.dumps(record)
        for record in (
            {"passage": 1, "entity": "a", "relation": "born", "value": 1901, "confidence": 1},
            {"passage": 1, "entity": "a", "relation": "height", "value": 1.5, "confidence": 0},
            {"passage": 1, "entity": "a", "relation": "r", "value": "v"},
            {"passage": 1, "entity": "a", "relation": "big", "value": "v", "confidence": 10**400},
        )
    )
    live = _live([_FakeResponse(200, lines)])
    ledger = live.extract_ledger([fact_chunk("c0", "a", "r", "v")])
    assert [(f.value, f.confidence) for f in ledger.facts] == [("1901", 1.0), ("1.5", 0.0), ("v", 1.0), ("v", 1.0)]
    assert type(ledger.facts[0].confidence) is float
    assert live.warnings == []

