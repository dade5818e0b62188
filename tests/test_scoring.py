from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adagate.index import HashingEmbedder, cosine
from adagate.oracle import Gap, Ledger, RuleBasedOracle
from adagate.scoring import DEFAULT_WEIGHTS, UtilityWeights, combine, score_candidate

from helpers import fact_chunk, sized_chunk

EMBEDDER = HashingEmbedder(dim=4096)
ORACLE = RuleBasedOracle()


def score(candidate, question="", ledger=None, gaps=(), evidence=(), weights=DEFAULT_WEIGHTS):
    gap_queries, _ = ORACLE.make_queries(question, list(gaps))
    vector = EMBEDDER.embed_one(candidate.text)
    return score_candidate(
        candidate,
        cosine(vector, EMBEDDER.embed_one(question)),
        [cosine(vector, EMBEDDER.embed_one(q)) for q in gap_queries],
        [cosine(vector, EMBEDDER.embed_one(c.text)) for c in evidence],
        ledger if ledger is not None else Ledger(),
        weights,
        oracle=ORACLE,
    )


def test_all_terms_zero_gives_zero_utility():
    candidate = sized_chunk("c0", 10)
    breakdown = score(candidate, question="completely unrelated words")
    assert breakdown.gap_cov == 0.0
    assert breakdown.corr == 0.0
    assert breakdown.nov == 0.0
    assert breakdown.red == 0.0
    assert breakdown.rel_q == 0.0
    assert breakdown.utility == 0.0


def test_single_term_arithmetic():
    # The candidate text equals the gap query text, so gap coverage is 1.
    from adagate.corpus import Chunk

    candidate = Chunk("c0", "X", "nationality", "ex")
    gaps = [Gap(entity="X", relation="nationality")]
    breakdown = score(candidate, question="zz unrelated", gaps=gaps)
    assert breakdown.gap_cov == pytest.approx(1.0, abs=1e-9)
    assert breakdown.nov == 0.0
    assert breakdown.utility == pytest.approx(0.30, abs=1e-9)


def test_exact_copy_of_selected_evidence():
    from adagate.corpus import Chunk

    question = "about subj subj"
    original = fact_chunk("c0", "subj", "rel", "val", filler="alpha beta gamma")
    # Original scored at its own selection time: empty evidence and ledger.
    at_selection = score(original, question=question)
    assert at_selection.red == 0.0
    assert at_selection.nov == 1.0

    copy = Chunk("c1", original.title, original.body, "ex")
    ledger = ORACLE.extract_ledger([original])
    later = score(copy, question=question, ledger=ledger, evidence=[original])
    assert later.red == pytest.approx(1.0, abs=1e-9)
    assert later.nov == 0.0
    assert later.utility < at_selection.utility


def test_rescoring_after_ledger_merge_zeroes_novelty():
    candidate = fact_chunk("c0", "ent", "rel", "val")
    before = score(candidate)
    assert before.nov == 1.0
    merged = ORACLE.extract_ledger([candidate])
    after = score(candidate, ledger=merged)
    assert after.nov == 0.0


def test_empty_evidence_and_empty_gaps_degenerate_to_zero():
    candidate = fact_chunk("c0", "e", "r", "v")
    breakdown = score(candidate)
    assert breakdown.red == 0.0
    assert breakdown.gap_cov == 0.0


def test_corroboration_matches_low_confidence_facts_only():
    low_chunk = fact_chunk("c0", "ent", "rel", "val", low=True)
    ledger = ORACLE.extract_ledger([low_chunk])
    assert ledger.facts[0].confidence == 0.5

    supporting = fact_chunk("c1", "ent", "rel", "val")
    breakdown = score(supporting, ledger=ledger)
    assert breakdown.corr == 1.0

    confident = ORACLE.extract_ledger([fact_chunk("c2", "ent", "rel", "val")])
    assert score(supporting, ledger=confident).corr == 0.0


def test_utility_identity_exact():
    candidate = fact_chunk("c0", "subj", "rel", "val")
    gaps = [Gap(entity="subj", relation="rel")]
    other = fact_chunk("c1", "other", "link", "thing")
    breakdown = score(candidate, question="subj val words", gaps=gaps, evidence=[other])
    w = DEFAULT_WEIGHTS
    expected = (
        w.lambda1 * breakdown.gap_cov
        + w.lambda2 * breakdown.corr
        + w.lambda3 * breakdown.nov
        - w.lambda4 * breakdown.red
        + w.lambda5 * breakdown.rel_q
    )
    assert breakdown.utility == expected


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit, unit, unit, unit, unit, unit, unit)
def test_combine_monotonicity(gap_cov, corr, nov, red, rel_q, higher_gap, higher_red):
    base = combine(DEFAULT_WEIGHTS, gap_cov, corr, nov, red, rel_q)
    more_gap = combine(DEFAULT_WEIGHTS, max(gap_cov, higher_gap), corr, nov, red, rel_q)
    assert more_gap >= base
    more_red = combine(DEFAULT_WEIGHTS, gap_cov, corr, nov, max(red, higher_red), rel_q)
    assert more_red <= base


def test_weights_validation():
    with pytest.raises(ValueError):
        UtilityWeights(lambda1=-0.1)
    with pytest.raises(ValueError):
        UtilityWeights(0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_weights_must_be_finite(weight):
    # NaN passes every sign test and +inf is positive; a manifest would record either as invalid JSON.
    with pytest.raises(ValueError, match="finite"):
        UtilityWeights(lambda1=weight)
    with pytest.raises(ValueError, match="finite"):
        UtilityWeights(0.3, 0.15, 0.15, 0.25, weight)


def test_terms_clamped_to_unit_interval():
    candidate = fact_chunk("c0", "subj", "rel", "val")
    twin = fact_chunk("c1", "subj", "rel", "val")
    breakdown = score(candidate, question=candidate.text, evidence=[twin, twin])
    for value in (breakdown.gap_cov, breakdown.corr, breakdown.nov, breakdown.red, breakdown.rel_q):
        assert 0.0 <= value <= 1.0
