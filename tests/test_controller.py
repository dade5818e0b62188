from __future__ import annotations

import dataclasses
import json

import pytest

from adagate.controller import (
    REASON_MAX_ITERATIONS,
    REASON_NO_USEFUL_REPAIR,
    REASON_NONE,
    REASON_SUFFICIENT,
    ControllerConfig,
    _seal_select,
    adaptive_cut,
    run_adagate,
    run_baseline,
    run_example,
)
from adagate.corpus import count_tokens
from adagate.evaluate import evidence_prf
from adagate.index import HashingEmbedder, VectorIndex
from adagate.oracle import ABSTAIN, RuleBasedOracle

from helpers import WORLD_DIM, build_world, fact_chunk

WORLD_CONFIG = ControllerConfig(
    mode="adagate", max_iterations=1, k=3, budget=140, buffer=2, namespace="clean"
)


class CountingIndex(VectorIndex):
    def __init__(self, embedder):
        super().__init__(embedder)
        self.query_count = 0

    def query_top_k(self, *args, **kwargs):
        self.query_count += 1
        return super().query_top_k(*args, **kwargs)


def test_adaptive_cut_largest_drop():
    # drops: (0.05, 0.45, 0.02) -> cut after the second score
    assert adaptive_cut([0.90, 0.85, 0.40, 0.38]) == 2
    assert adaptive_cut([0.9]) == 1
    assert adaptive_cut([]) == 0


def test_two_hop_recovery_via_gap_query(oracle):
    examples, chunks, index = build_world(3, seed=21)
    for example in examples:
        bridge_title = next(t for t in example.gold_titles if t.endswith("record"))
        seed_hits = index.query_top_k("clean", example.question, 3)
        seed_titles = {index.get_chunk("clean", h.chunk_id).title for h in seed_hits}
        assert bridge_title not in seed_titles  # bridge unreachable from the question

        trace = run_adagate(example, WORLD_CONFIG, index, oracle)
        precision, recall, f1 = evidence_prf(trace.final_titles, example.gold_titles)
        assert f1 == 1.0
        assert trace.final_answer == example.gold_answer
        assert trace.docs_passed == 2


def test_sufficient_short_circuit(oracle):
    examples, chunks, index = build_world(2, seed=33)
    example = examples[0]
    hop_title = next(t for t in example.gold_titles if t.endswith("profile"))
    subj = hop_title.split()[0]
    single_hop = dataclasses.replace(
        example,
        question=f"about {subj} SLOT[{subj}|rel000a] {subj}",
        gold_titles=frozenset({hop_title}),
        gold_answer=f"mid{subj[-3:]}",
    )
    counting = CountingIndex(HashingEmbedder(dim=WORLD_DIM))
    counting.upsert("clean", chunks)
    config = dataclasses.replace(WORLD_CONFIG, max_iterations=3)
    trace = run_adagate(single_hop, config, counting, oracle)
    assert trace.termination_reason == REASON_SUFFICIENT
    assert counting.query_count == 1  # the seed query only; zero repair retrievals
    assert len(trace.iterations) == 2
    assert trace.iterations[1].sufficient is True
    assert trace.iterations[1].queries == {}


def test_unresolvable_gap_hits_iteration_limit_and_abstains(oracle):
    from adagate.corpus import make_chunk

    examples, chunks, index = build_world(2, seed=44)
    example = examples[0]
    bridge_title = next(t for t in example.gold_titles if t.endswith("record"))
    # A decoy answers the micro-query lexically but lacks the needed fact,
    # so the repair admits it and the gap stays open.
    decoy = make_chunk(
        "zz-decoy",
        "mid000 dossier",
        "the mid000 archive. ENT[mid000] REL[unrelated_link] VAL[nothing].",
        "q000",
    )
    without_bridge = [c for c in chunks if c.title != bridge_title] + [decoy]
    index = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
    index.upsert("clean", without_bridge)
    trace = run_adagate(example, WORLD_CONFIG, index, oracle)
    assert trace.termination_reason == REASON_MAX_ITERATIONS
    assert trace.final_answer == ABSTAIN
    assert "zz-decoy" in trace.final_chunk_ids


def test_no_useful_repair_when_nothing_new_retrievable(oracle):
    examples, chunks, index = build_world(1, seed=55)
    example = examples[0]
    hop_chunk = next(c for c in chunks if c.title.endswith("profile"))
    solo = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
    solo.upsert("clean", [hop_chunk])
    config = dataclasses.replace(WORLD_CONFIG, max_iterations=3)
    trace = run_adagate(example, config, solo, oracle)
    assert trace.termination_reason == REASON_NO_USEFUL_REPAIR
    assert len(trace.iterations) == 2  # stopped on the first repair pass


def test_traces_are_reproducible_bit_for_bit(oracle):
    examples, chunks, index = build_world(2, seed=66)
    config = dataclasses.replace(WORLD_CONFIG, max_iterations=3)
    first = run_adagate(examples[0], config, index, oracle)
    second = run_adagate(examples[0], config, index, RuleBasedOracle())
    assert json.dumps(first.as_dict(full=True)) == json.dumps(second.as_dict(full=True))


def test_trace_invariants(oracle):
    examples, chunks, index = build_world(3, seed=77)
    config = dataclasses.replace(WORLD_CONFIG, max_iterations=3)
    for example in examples:
        trace = run_adagate(example, config, index, oracle)
        assert len(trace.iterations) <= config.max_iterations + 1
        assert trace.termination_reason in (
            REASON_SUFFICIENT,
            REASON_NO_USEFUL_REPAIR,
            REASON_MAX_ITERATIONS,
        )
        assert trace.docs_passed == len(trace.final_chunk_ids)
        evidence = [index.get_chunk("clean", cid) for cid in trace.final_chunk_ids]
        expected_tokens = count_tokens(example.question) + sum(c.token_len for c in evidence)
        assert trace.input_tokens == expected_tokens


def test_basic_baseline_passes_exactly_k_docs(oracle):
    examples, chunks, index = build_world(2, seed=88)
    config = dataclasses.replace(WORLD_CONFIG, mode="basic")
    trace = run_baseline(examples[0], config, index, oracle)
    assert trace.docs_passed == 3
    evidence = [index.get_chunk("clean", cid) for cid in trace.final_chunk_ids]
    assert trace.input_tokens == count_tokens(examples[0].question) + sum(
        c.token_len for c in evidence
    )
    assert trace.termination_reason == REASON_NONE


def test_adaptive_k_cuts_at_largest_drop_on_world(oracle):
    examples, chunks, index = build_world(2, seed=99)
    config = dataclasses.replace(WORLD_CONFIG, mode="adaptive_k", adaptive_pool=10)
    trace = run_baseline(examples[0], config, index, oracle)
    # One dominant hit (the hop chunk), then near-zero ties: cut after 1.
    assert trace.docs_passed == 1
    assert trace.final_titles[0].endswith("profile")


def test_seal_style_single_document_collapse(oracle):
    examples, chunks, index = build_world(2, seed=12)
    config = dataclasses.replace(WORLD_CONFIG, mode="seal_style")
    for example in examples:
        trace = run_baseline(example, config, index, oracle)
        assert trace.docs_passed == 1
        precision, recall, f1 = evidence_prf(trace.final_titles, example.gold_titles)
        assert precision == 1.0
        assert recall == 0.5
        assert f1 == pytest.approx(2 / 3, abs=0.005)


def test_final_evidence_is_retrievable_from_namespace(oracle):
    examples, chunks, index = build_world(2, seed=13)
    for mode in ("adagate", "basic", "adaptive_k", "seal_style"):
        config = dataclasses.replace(WORLD_CONFIG, mode=mode)
        trace = run_example(examples[1], config, index, oracle)
        for chunk_id in trace.final_chunk_ids:
            assert index.get_chunk("clean", chunk_id) is not None


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(mode="unknown")
    with pytest.raises(ValueError):
        ControllerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        ControllerConfig(k=0)
    with pytest.raises(ValueError):
        ControllerConfig(budget=0)


class LedgerOnlyOracle:
    """A backend with the rules ledger but none of ``RuleBasedOracle``'s other methods."""

    def extract_ledger(self, evidence):
        return RuleBasedOracle().extract_ledger(evidence)


def test_seal_select_matches_question_slots_for_any_backend():
    retrieved = [fact_chunk("c1", "aaa", "rel", "x"), fact_chunk("c2", "zed", "born", "y")]
    question = "where was zed born SLOT[zed|born]"
    for backend in (RuleBasedOracle(), LedgerOnlyOracle()):
        assert [c.chunk_id for c in _seal_select(question, retrieved, backend)] == ["c2"]
    # Without slot markup the best fact of any kind wins, for every backend.
    assert [c.chunk_id for c in _seal_select("where was zed born", retrieved, LedgerOnlyOracle())] == ["c1"]
