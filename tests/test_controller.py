from __future__ import annotations

import dataclasses
import json
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adagate import controller
from adagate.controller import (
    MODES,
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
from adagate.corpus import Example, count_tokens
from adagate.evaluate import evidence_prf
from adagate.index import HashingEmbedder, RemoteEmbedder, VectorIndex
from adagate.oracle import ABSTAIN, RuleBasedOracle
from adagate.perturb import KIND_NOISE, KIND_REDUNDANCY, PerturbConfig, inject_noise, inject_redundancy
from adagate.scoring import TermBreakdown

from helpers import WORLD_DIM, FakeResponse, build_world, densify, fact_chunk, sized_chunk

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
        seed_titles = {index.get_chunk("clean", chunk_id).title for chunk_id, _ in seed_hits}
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
    from adagate.corpus import Chunk

    examples, chunks, index = build_world(2, seed=44)
    example = examples[0]
    bridge_title = next(t for t in example.gold_titles if t.endswith("record"))
    # A decoy answers the micro-query lexically but lacks the needed fact,
    # so the repair admits it and the gap stays open.
    decoy = Chunk(
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


def test_an_unchanged_repair_stops_even_when_a_new_candidate_outranks_a_member(oracle, monkeypatch):
    # The 80-token candidate outranks the 40-token member but fits in B=110
    # beside neither member, so every repair re-selects the same two passages.
    utilities = {"a": 0.9, "b": 0.5, "c": 0.6}
    chunks = [sized_chunk("a", 60), sized_chunk("b", 40), sized_chunk("c", 80)]
    monkeypatch.setattr(
        controller, "score_candidate", lambda chunk, *_, **__: TermBreakdown(0, 0, 0, 0, 0, utilities[chunk.chunk_id])
    )
    index = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
    index.upsert("clean", chunks)
    example = Example("q", "about alpha SLOT[alpha|born] alpha", "x", frozenset({"title a"}), (("title a", ()),))
    config = dataclasses.replace(WORLD_CONFIG, max_iterations=3, budget=110)
    trace = run_adagate(example, config, index, oracle)
    assert trace.iterations[1].scores["c"].utility > utilities["b"]
    assert [it.selected_ids for it in trace.iterations] == [["a", "b"], ["a", "b"]]
    assert trace.termination_reason == REASON_NO_USEFUL_REPAIR


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


def _three_condition_world(world_seed: int):
    """A 20-question world's examples and its index of clean, noise and redundancy namespaces."""
    examples, clean, index = build_world(20, seed=world_seed)
    index.upsert(KIND_NOISE, inject_noise(examples, clean, PerturbConfig(kind=KIND_NOISE, rho=0.5, seed=3)))
    redundancy = PerturbConfig(kind=KIND_REDUNDANCY, rho=0.5, seed=3)
    index.upsert(KIND_REDUNDANCY, inject_redundancy(examples, clean, redundancy))
    return examples, index


def _unchanged_repairs(trace, limit: int) -> list[int]:
    """Indices below ``limit`` of the repair iterations that re-selected the ids they started from."""
    ids = [it.selected_ids for it in trace.iterations]
    return [t for t in range(1, limit) if ids[t] == ids[t - 1]]


# The budget, namespace, determinism and termination invariants hold beyond
# one world seed. No accuracy is asserted: in the redundancy condition the
# repair step can evict a found hop, a known defect that would decide it.
@pytest.mark.parametrize("world_seed", [0, 1, 7, 10, 20240601])
def test_invariants_hold_across_world_seeds_conditions_and_modes(world_seed):
    examples, index = _three_condition_world(world_seed)
    _, rebuilt = _three_condition_world(world_seed)
    repair_reasons = (REASON_SUFFICIENT, REASON_NO_USEFUL_REPAIR, REASON_MAX_ITERATIONS)
    budget = 140
    for namespace in ("clean", KIND_NOISE, KIND_REDUNDANCY):
        tokens = {c.chunk_id: c.token_len for c in index.chunks(namespace)}
        for mode in MODES:
            config = ControllerConfig(mode=mode, max_iterations=3, k=3, budget=budget, namespace=namespace)
            for example in examples:
                trace = run_example(example, config, index, RuleBasedOracle())
                assert set(trace.final_chunk_ids) <= tokens.keys()
                if mode == "adagate":
                    assert trace.termination_reason in repair_reasons
                    assert all(it.used_tokens <= budget for it in trace.iterations)
                    assert not _unchanged_repairs(trace, limit=len(trace.iterations) - 1), example.id
                    if trace.termination_reason == REASON_MAX_ITERATIONS:
                        assert not _unchanged_repairs(trace, limit=len(trace.iterations)), example.id
                    for ids in [it.selected_ids for it in trace.iterations] + [trace.final_chunk_ids]:
                        assert sum(tokens[cid] for cid in ids) <= budget
                else:
                    assert trace.termination_reason == REASON_NONE
                # The same run over an index built again from the same seeds.
                again = run_example(example, config, rebuilt, RuleBasedOracle())
                assert again.as_dict(full=True) == trace.as_dict(full=True), (namespace, mode, example.id)


def _resized(chunk, length: int):
    """``chunk`` of ``length`` tokens: its filler words replaced by as many words unique to its id as it takes.

    A world's passage holds at most 17 tokens that are not filler.
    """
    words = [w for w in chunk.body.split() if not re.fullmatch(r"w\d+\.?", w)]
    padding = [f"{chunk.chunk_id}x{i}" for i in range(length - count_tokens(chunk.title) - len(words))]
    return dataclasses.replace(chunk, body=" ".join(words + padding))


@st.composite
def _drawn_length_worlds(draw, redundant=st.booleans()):
    """A two-question clean or redundancy world whose passages have drawn lengths of 30 to 120 tokens."""
    examples, chunks, _ = build_world(2, seed=draw(st.integers(0, 99)))
    if draw(redundant):
        redundancy = PerturbConfig(kind=KIND_REDUNDANCY, rho=0.5, seed=draw(st.integers(0, 9)))
        chunks = inject_redundancy(examples, chunks, redundancy)
    lengths = draw(st.lists(st.integers(30, 120), min_size=len(chunks), max_size=len(chunks)))
    index = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
    index.upsert("clean", [_resized(c, n) for c, n in zip(chunks, lengths)])
    return examples, index


# Where a passage may not fit beside the members it would outrank, a repair can
# re-select what it started from; the loop stops there, since running on
# would repeat that iteration. So a longer limit changes no run that stopped
# before its own, and extends any other without changing its iterations.
@given(_drawn_length_worlds(), st.integers(60, 300), st.integers(1, 3))
def test_a_repair_stops_at_its_fixed_point_in_drawn_length_worlds(world, budget, limit):
    examples, index = world
    config = ControllerConfig(max_iterations=limit, k=3, budget=budget)
    for example in examples:
        short = run_adagate(example, config, index, RuleBasedOracle())
        long = run_adagate(example, dataclasses.replace(config, max_iterations=limit + 2), index, RuleBasedOracle())
        for trace in short, long:
            assert not _unchanged_repairs(trace, limit=len(trace.iterations) - 1)
        assert long.iterations[: len(short.iterations)] == short.iterations
        if short.termination_reason != REASON_MAX_ITERATIONS:  # the same evidence, answer and all
            assert long.as_dict(full=True) == short.as_dict(full=True)


# A replayed repair step must be the one that started from the same selection:
# each record's ledger and verdict are those of the evidence the record before
# it left, however deep the run and wherever its selection cycles.
@given(_drawn_length_worlds(redundant=st.just(True)), st.integers(60, 300), st.integers(1, 8))
def test_every_repair_step_reads_the_evidence_before_it_in_deep_runs(world, budget, limit):
    examples, index = world
    rules = RuleBasedOracle()
    config = ControllerConfig(max_iterations=limit, k=3, budget=budget)
    for example in examples:
        short = run_adagate(example, config, index, RuleBasedOracle())
        long = run_adagate(example, dataclasses.replace(config, max_iterations=limit + 2), index, RuleBasedOracle())
        for trace in short, long:
            assert [it.index for it in trace.iterations] == list(range(len(trace.iterations)))
            for before, record in zip(trace.iterations, trace.iterations[1:]):
                ledger = rules.extract_ledger([index.get_chunk("clean", cid) for cid in before.selected_ids])
                verdict = rules.assess_sufficiency(example.question, ledger)
                expected = (len(ledger), verdict.sufficient, [(g.entity, g.relation) for g in verdict.gaps])
                assert (record.ledger_size, record.sufficient, record.gaps) == expected
            assert trace.final_chunk_ids == trace.iterations[-1].selected_ids
        assert long.iterations[: len(short.iterations)] == short.iterations


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
    config = dataclasses.replace(WORLD_CONFIG, mode="adaptive_k")
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


def test_run_baseline_refuses_the_adagate_mode(oracle):
    examples, _, index = build_world(1)
    with pytest.raises(ValueError) as exc:
        run_baseline(examples[0], ControllerConfig(mode="adagate"), index, oracle)
    assert str(exc.value) == "mode 'adagate' is not a baseline"


class LedgerOnlyOracle:
    """A backend with the rules ledger but none of ``RuleBasedOracle``'s other methods."""

    def extract_ledger(self, evidence):
        return RuleBasedOracle().extract_ledger(evidence)


def test_seal_select_matches_question_slots_for_any_backend():
    retrieved = [fact_chunk("c1", "aaa", "rel", "x"), fact_chunk("c2", "zed", "born", "y")]
    question = "where was zed born SLOT[zed|born]"
    for backend in (RuleBasedOracle(), LedgerOnlyOracle()):
        ledger = backend.extract_ledger(retrieved)
        assert [c.chunk_id for c in _seal_select(question, retrieved, ledger)] == ["c2"]
    # Without slot markup the best fact of any kind wins, for every backend.
    ledger = LedgerOnlyOracle().extract_ledger(retrieved)
    assert [c.chunk_id for c in _seal_select("where was zed born", retrieved, ledger)] == ["c1"]


class CountingOracle:
    """The rules oracle behind a wrapper that counts the controller's calls by method.

    Calls the rules oracle makes to itself (``generate_answer`` extracts a
    ledger) are not counted.
    """

    def __init__(self):
        self.inner = RuleBasedOracle()
        self.calls = Counter()
        self.warnings = []

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


def test_seal_style_extracts_its_ledger_once():
    examples, chunks, index = build_world(2, seed=12)
    config = dataclasses.replace(WORLD_CONFIG, mode="seal_style")
    for example in examples:
        counting = CountingOracle()
        trace = run_baseline(example, config, index, counting)
        assert counting.calls["extract_ledger"] == 1
        retrieved = [index.get_chunk("clean", cid) for cid, _ in trace.iterations[0].hits["seed"]]
        assert trace.iterations[0].ledger_size == len(RuleBasedOracle().extract_ledger(retrieved)) > 0


class RecordingEmbedder(HashingEmbedder):
    """A hash embedder that records every text it is asked to embed."""

    def __init__(self, dim):
        super().__init__(dim)
        self.texts = []

    def embed_one(self, text):
        self.texts.append(text)
        return super().embed_one(text)

    def embed(self, texts):
        self.texts.extend(texts)
        return super().embed(texts)


def test_no_stored_chunk_is_embedded_after_upsert(oracle):
    examples, chunks, _ = build_world(5, seed=7)
    embedder = RecordingEmbedder(WORLD_DIM)
    index = VectorIndex(embedder)
    index.upsert("clean", chunks)
    chunk_texts = {c.text for c in chunks}
    assert not chunk_texts & set(embedder._cache)  # the cache holds query strings only
    embedder.texts.clear()
    config = dataclasses.replace(WORLD_CONFIG, max_iterations=2)
    for example in examples:
        run_adagate(example, config, index, oracle)
    assert embedder.texts
    assert not chunk_texts & set(embedder.texts)


class HashBackedSession:
    """An embeddings service answering with dense hash vectors; records each request's inputs."""

    def __init__(self, dim):
        self.hash = HashingEmbedder(dim)
        self.inputs = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.inputs.append(list(json["input"]))
        data = [{"embedding": densify(vec, self.hash.dim)} for vec in self.hash.embed(json["input"])]
        return FakeResponse(200, {"data": data})


def test_remote_run_over_a_loaded_snapshot_sends_only_query_strings(tmp_path, oracle):
    examples, chunks, _ = build_world(5, seed=7, dim=64)
    writer = RemoteEmbedder(url="http://svc", dim=64, session=HashBackedSession(64))
    built = VectorIndex(writer)
    built.upsert("clean", chunks)
    assert not writer._cache
    built.save(tmp_path / "store.jsonl")

    session = HashBackedSession(64)
    reader = RemoteEmbedder(url="http://svc", dim=64, session=session)
    index = VectorIndex.load(tmp_path / "store.jsonl", embedder_for=lambda backend, dim: reader)
    for example in examples:
        run_adagate(example, WORLD_CONFIG, index, oracle)
    chunk_texts = {c.text for c in chunks}
    assert session.inputs
    assert [inputs for inputs in session.inputs if chunk_texts & set(inputs)] == []
    sent = [text for inputs in session.inputs for text in inputs]
    assert len(sent) == len(set(sent))  # one request per distinct query string


def test_trace_as_dict_is_asdict_with_iterations_last_and_copies_no_leaf(oracle, monkeypatch):
    import copy

    from adagate.corpus import chunk_corpus
    from adagate.perturb import KIND_REDUNDANCY, PerturbConfig, inject_redundancy
    from adagate.synthetic import WorldSpec, generate_world

    examples = generate_world(WorldSpec(n_questions=60, seed=7))
    # Perturb seed 1: one adagate question ends with no useful repair (none does at seed 3).
    chunks = inject_redundancy(examples, chunk_corpus(examples), PerturbConfig(kind=KIND_REDUNDANCY, rho=0.5, seed=1))
    index = VectorIndex(HashingEmbedder(dim=256))
    index.upsert("redundancy", chunks)
    traces = []
    for mode in MODES:
        config = ControllerConfig(mode=mode, max_iterations=3, k=3, budget=140, namespace="redundancy")
        traces += [run_example(example, config, index, oracle) for example in examples]
    reasons = {t.termination_reason for t in traces}
    assert reasons == {REASON_SUFFICIENT, REASON_MAX_ITERATIONS, REASON_NO_USEFUL_REPAIR, REASON_NONE}

    def reference(trace, full):
        record = dataclasses.asdict(trace)
        iterations = record.pop("iterations")
        if full:
            record["iterations"] = iterations
        return record

    expected = [(json.dumps(reference(t, True)), json.dumps(reference(t, False))) for t in traces]

    def no_deepcopy(value, memo=None):
        raise AssertionError(f"deep-copied {value!r}")

    monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
    assert [(json.dumps(t.as_dict(full=True)), json.dumps(t.as_dict())) for t in traces] == expected


class QueryLogIndex(VectorIndex):
    """Records the query string of every ``query_top_k`` call."""

    def __init__(self, embedder):
        super().__init__(embedder)
        self.queries: list[str] = []

    def query_top_k(self, namespace, query_text, k):
        self.queries.append(query_text)
        return super().query_top_k(namespace, query_text, k)


def _redundancy_run_setup(n_questions: int):
    """A seed-7 redundancy world at dim 256 and the L=3 repair config over it."""
    from adagate.corpus import chunk_corpus
    from adagate.perturb import KIND_REDUNDANCY, PerturbConfig, inject_redundancy
    from adagate.synthetic import WorldSpec, generate_world

    examples = generate_world(WorldSpec(n_questions=n_questions, seed=7))
    chunks = inject_redundancy(examples, chunk_corpus(examples), PerturbConfig(kind=KIND_REDUNDANCY, rho=0.5, seed=3))
    index = QueryLogIndex(HashingEmbedder(dim=256))
    for chunk in chunks:  # one upsert each, so chunks with equal texts get vector objects of their own
        index.upsert("redundancy", [chunk])
    config = ControllerConfig(mode="adagate", max_iterations=3, k=3, budget=140, namespace="redundancy")
    return examples, chunks, index, config


def test_a_run_queries_each_distinct_query_string_once(oracle):
    examples, _, index, config = _redundancy_run_setup(30)
    repeated = 0
    for example in examples:
        index.queries.clear()
        trace = run_adagate(example, config, index, oracle)
        asked = [q for it in trace.iterations for qs in it.queries.values() for q in qs]
        repeated += len(asked) - len(set(asked))
        assert Counter(index.queries) == Counter(set(asked)), example.id
    assert repeated > 0  # the trace repeats queries that the index answered once


def test_a_run_repairs_each_distinct_selection_once():
    examples, _, index, config = _redundancy_run_setup(30)
    config = dataclasses.replace(config, max_iterations=6)
    cycled = 0
    for example in examples:
        counting = CountingOracle()
        trace = run_adagate(example, config, index, counting)
        records = trace.iterations
        starts = [tuple(it.selected_ids) for it in records[:-1]]  # repair step t starts from starts[t - 1]
        assert counting.calls["extract_ledger"] == counting.calls["assess_sufficiency"] == len(set(starts)), example.id
        again = next((t for t in range(2, len(records)) if starts[t - 1] in starts[: t - 1]), None)
        if again is None:
            continue
        cycled += 1
        first = starts.index(starts[again - 1]) + 1  # the repair step that started there before
        period = again - first
        assert len(records) == config.max_iterations + 1, example.id
        assert trace.termination_reason == REASON_MAX_ITERATIONS
        for t in range(first, len(records) - period):
            assert dataclasses.replace(records[t + period], index=t) == records[t], (example.id, t)
    assert cycled > 0


def test_a_run_computes_no_cosine_pair_twice(oracle, monkeypatch):
    from adagate import controller, index as index_module, scoring

    examples, chunks, index, config = _redundancy_run_setup(30)
    # Identities name the vectors: no two stored chunks share a vector object,
    # and a query's vector is the embedder's cached one for that string.
    assert len({id(index.get_entry("redundancy", c.chunk_id)[1]) for c in chunks}) == len(chunks)
    pairs: list[frozenset] = []

    def counting_cosine(a, b):
        pairs.append(frozenset((id(a), id(b))))
        return index_module.cosine(a, b)

    for module in (controller, scoring):
        if getattr(module, "cosine", None) is index_module.cosine:
            monkeypatch.setattr(module, "cosine", counting_cosine)
    computed = 0
    for example in examples:
        pairs.clear()
        run_adagate(example, config, index, oracle)
        computed += len(pairs)
        assert len(pairs) == len(set(pairs)), example.id
    assert computed > 0


def test_the_run_memo_does_not_outlive_a_run(oracle):
    examples, _, index, config = _redundancy_run_setup(5)
    example = examples[0]
    index.queries.clear()
    first = run_adagate(example, config, index, oracle)
    calls = list(index.queries)
    second = run_adagate(example, config, index, oracle)
    assert calls and index.queries == calls + calls
    assert second.as_dict(full=True) == first.as_dict(full=True)

    # Replacing a passage that the first repair step brought in changes what that
    # step gives from the same start: a run after the upsert repairs afresh.
    _, _, rebuilt, _ = _redundancy_run_setup(5)
    brought = next(c for c in first.iterations[1].selected_ids if c not in first.iterations[0].selected_ids)
    for each in index, rebuilt:
        each.upsert("redundancy", [sized_chunk(brought, 20)])
    counting = CountingOracle()
    third = run_adagate(example, config, index, counting)
    assert third.iterations[0] == first.iterations[0] and third.iterations[1] != first.iterations[1]
    assert counting.calls["extract_ledger"] == len({tuple(it.selected_ids) for it in third.iterations[:-1]})
    assert third.as_dict(full=True) == run_adagate(example, config, rebuilt, oracle).as_dict(full=True)
