"""Acceptance suite.

One test per criterion; each prints a [PASS] line with its elapsed time
(run with ``pytest -s`` to see them) and enforces the stated runtime bound.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from adagate.cli import main
from adagate.controller import ControllerConfig, adaptive_cut, run_adagate, run_baseline
from adagate.corpus import chunk_corpus
from adagate.evaluate import evidence_prf
from adagate.index import HashingEmbedder, VectorIndex, cosine
from adagate.oracle import RuleBasedOracle
from adagate.perturb import PerturbConfig, inject_noise, inject_redundancy
from adagate.selection import replace_update, select_evidence
from adagate.synthetic import WorldSpec, generate_world

from helpers import WORLD_DIM, builtin_fixture_path, sized_chunk

ACCEPTANCE_SEED = 20240601


@contextmanager
def _timed(limit_seconds: float | None, label: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"{label} took {elapsed:.2f}s, limit {limit_seconds}s"
    print(f"[PASS] {label} ({elapsed:.2f}s)")


def _world_index(examples_chunks):
    examples, chunks = examples_chunks
    index = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
    index.upsert("clean", chunks)
    return index


def test_criterion_1_metric_fidelity():
    with _timed(1.0, "criterion 1: per-example evidence P/R/F1 triplets reproduced"):
        cases = [
            (["A"], {"A", "B"}, (1.00, 0.50, 0.67)),
            (["A", "B"], {"A", "B"}, (1.00, 1.00, 1.00)),
            (["A", "B", "C"], {"A", "B"}, (0.67, 1.00, 0.80)),
        ]
        for selected, gold, expected in cases:
            precision, recall, f1 = evidence_prf(selected, gold)
            assert precision == pytest.approx(expected[0], abs=0.005)
            assert recall == pytest.approx(expected[1], abs=0.005)
            assert f1 == pytest.approx(expected[2], abs=0.005)


def test_criterion_2_capacity_matches_brute_force_oracle():
    from adagate.selection import effective_capacity

    def oracle(scores, buffer):
        if len(scores) == 1:
            return 1
        drops = [(scores[i] - scores[i + 1], i + 1) for i in range(len(scores) - 1)]
        best = max(drop for drop, _ in drops)
        i_star = min(i for drop, i in drops if drop == best)
        return min(max(i_star + buffer, 1), len(scores))

    with _timed(5.0, "criterion 2: effective capacity equals drop-enumeration oracle on 10,000 lists"):
        assert effective_capacity([0.19, 0.15], 2) == 2  # clamped two-candidate case
        rng = random.Random(ACCEPTANCE_SEED)
        for _ in range(10_000):
            m = rng.randint(1, 32)
            scores = sorted((rng.random() for _ in range(m)), reverse=True)
            buffer = rng.randint(0, 5)
            assert effective_capacity(scores, buffer) == oracle(scores, buffer)


def test_criterion_3_budget_safety_fuzz():
    with _timed(10.0, "criterion 3: token budget holds across 1,000 fuzzed pools"):
        rng = random.Random(ACCEPTANCE_SEED + 1)
        violations = 0
        for round_index in range(1_000):
            m = rng.randint(1, 12)
            scored = [
                (sized_chunk(f"c{round_index}-{i}", rng.randint(50, 2000)), rng.uniform(-0.2, 1.0))
                for i in range(m)
            ]
            budget = rng.randint(500, 5000)
            k_eff = rng.randint(1, m)
            state = select_evidence(scored, k_eff, budget)
            if state.used_tokens > budget:
                violations += 1
            new = [
                (sized_chunk(f"n{round_index}-{i}", rng.randint(50, 2000)), rng.uniform(-0.2, 1.0))
                for i in range(rng.randint(0, 4))
            ]
            rescores = {chunk.chunk_id: rng.uniform(-0.2, 1.0) for chunk, _ in scored}
            updated = replace_update(
                state, new, lambda chunk, prior: rescores[chunk.chunk_id], buffer=rng.randint(0, 3)
            )
            if updated.used_tokens > budget:
                violations += 1
            assert updated.used_tokens == sum(c.token_len for c in updated.selected)
        assert violations == 0


def test_criterion_4_equal_length_greedy_optimality():
    import math

    with _timed(None, "criterion 4: equal-length greedy equals exhaustive optimum on 500 instances"):
        rng = random.Random(ACCEPTANCE_SEED + 2)
        for _ in range(500):
            m = rng.randint(1, 8)
            length = rng.randint(40, 500)
            scored = [(sized_chunk(f"c{i}", length), rng.random()) for i in range(m)]
            budget = rng.randint(length, 5 * length)
            k_eff = rng.randint(1, m)
            greedy = select_evidence(scored, k_eff, budget)
            # fsum is order-independent, so totals compare exactly.
            greedy_total = math.fsum(u for c, u in scored if c.chunk_id in set(greedy.chunk_ids))
            top = sorted(scored, key=lambda p: (-p[1], p[0].chunk_id))[:k_eff]
            best = 0.0
            for size in range(len(top) + 1):
                for subset in itertools.combinations(top, size):
                    if sum(c.token_len for c, _ in subset) <= budget:
                        best = max(best, math.fsum(u for _, u in subset))
            assert greedy_total == best


def test_criterion_5_synthetic_two_hop_recovery():
    with _timed(30.0, "criterion 5: 50-question two-hop recovery (repair >= 0.95, single-doc baseline <= 0.70)"):
        examples = generate_world(WorldSpec(n_questions=50, seed=ACCEPTANCE_SEED))
        chunks = chunk_corpus(examples)
        index = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
        index.upsert("clean", chunks)
        oracle = RuleBasedOracle()

        repair_config = ControllerConfig(
            mode="adagate", max_iterations=1, k=3, budget=140, buffer=2, namespace="clean"
        )
        seal_config = ControllerConfig(mode="seal_style", k=3, budget=140, namespace="clean")

        repair_f1, seal_f1 = [], []
        for example in examples:
            trace = run_adagate(example, repair_config, index, oracle)
            repair_f1.append(evidence_prf(trace.final_titles, example.gold_titles)[2])
            baseline = run_baseline(example, seal_config, index, oracle)
            seal_f1.append(evidence_prf(baseline.final_titles, example.gold_titles)[2])

        mean_repair = sum(repair_f1) / len(repair_f1)
        mean_seal = sum(seal_f1) / len(seal_f1)
        assert mean_repair >= 0.95, f"repair mean F1 {mean_repair:.3f}"
        assert mean_seal <= 0.70, f"single-doc baseline mean F1 {mean_seal:.3f}"


def test_criterion_6_redundancy_robustness():
    with _timed(None, "criterion 6: redundancy injection (no near-duplicate pairs vs basic top-3)"):
        examples = generate_world(WorldSpec(n_questions=50, seed=ACCEPTANCE_SEED))
        chunks = chunk_corpus(examples)
        perturbed = inject_redundancy(
            examples, chunks, PerturbConfig(kind="redundancy", rho=0.5, seed=ACCEPTANCE_SEED + 3)
        )
        embedder = HashingEmbedder(dim=WORLD_DIM)
        index = VectorIndex(embedder)
        index.upsert("redundancy", perturbed)
        oracle = RuleBasedOracle()

        repair_config = ControllerConfig(
            mode="adagate", max_iterations=1, k=3, budget=140, buffer=2, namespace="redundancy"
        )
        basic_config = ControllerConfig(mode="basic", k=3, budget=140, namespace="redundancy")

        def max_pair_cosine(chunk_ids):
            vectors = [
                embedder.embed_one(index.get_chunk("redundancy", cid).text) for cid in chunk_ids
            ]
            return max(
                (cosine(a, b) for a, b in combinations(vectors, 2)),
                default=0.0,
            )

        repair_violations = 0
        basic_with_pair = 0
        for example in examples:
            trace = run_adagate(example, repair_config, index, oracle)
            if max_pair_cosine(trace.final_chunk_ids) >= 0.95:
                repair_violations += 1
            baseline = run_baseline(example, basic_config, index, oracle)
            if max_pair_cosine(baseline.final_chunk_ids) >= 0.95:
                basic_with_pair += 1

        assert repair_violations == 0
        assert basic_with_pair >= 0.30 * len(examples), f"basic pairs in {basic_with_pair}/50"


def test_criterion_7_offline_determinism(tmp_path):
    with _timed(20.0, "criterion 7: two offline runs are byte-identical"):
        data = str(builtin_fixture_path())
        outputs = []
        for name in ("first", "second"):
            workdir = tmp_path / name
            workdir.mkdir()
            chunks = workdir / "chunks.jsonl"
            store = workdir / "store.jsonl"
            out = workdir / "r.jsonl"
            assert main(["ingest", "--data", data, "--out", str(chunks)]) == 0
            assert main(
                ["index", "--chunks", str(chunks), "--store", str(store),
                 "--namespace", "clean", "--dim", str(WORLD_DIM)]
            ) == 0
            assert main(
                ["run", "--data", data, "--store", str(store), "--namespace", "clean",
                 "--mode", "adagate", "--L", "3", "--budget", "140",
                 "--oracle", "rules", "--embedder", "hash",
                 "--trace", "full", "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_8_noise_arithmetic():
    with _timed(None, "criterion 8: noise at rho=0.5 doubles pools, preserves golds, deterministic"):
        examples = generate_world(WorldSpec(n_questions=2, seed=ACCEPTANCE_SEED))
        chunks = chunk_corpus(examples)
        config = PerturbConfig(kind="noise", rho=0.5, seed=ACCEPTANCE_SEED + 4)
        first = inject_noise(examples, chunks, config)
        pools: dict[str, int] = {}
        for chunk in first:
            pools[chunk.source_example] = pools.get(chunk.source_example, 0) + 1
        assert all(count == 20 for count in pools.values())

        gold_titles = set().union(*(e.gold_titles for e in examples))
        originals = {c.chunk_id: c for c in chunks}
        for chunk in first[: len(chunks)]:
            if chunk.title in gold_titles:
                assert chunk == originals[chunk.chunk_id]

        second = inject_noise(examples, chunks, config)
        assert json.dumps([c.__dict__ for c in first]) == json.dumps([c.__dict__ for c in second])


def test_criterion_9_adaptive_k_conformance():
    with _timed(None, "criterion 9: adaptive-k cuts (0.90, 0.85, 0.40, 0.38) after two documents"):
        assert adaptive_cut([0.90, 0.85, 0.40, 0.38]) == 2


@pytest.mark.skip(reason="criterion 10 needs live endpoints (N=25 real run); excluded from automated acceptance")
def test_criterion_10_live_run():
    pass
