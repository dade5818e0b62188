"""Evidence controllers: the gap-aware repair loop and the baselines.

The repair controller seeds evidence by retrieving for the raw question,
then iterates extract / search / score / replace: extract the ledger and
assess sufficiency, issue gap micro-queries plus question-anchored
fallback queries, score the deduplicated candidates, and re-select the
evidence set from the merged pool under the token budget. It stops when
the verdict is sufficient, when a repair pass changes nothing and no new
candidate outranks the weakest selected passage, or after the configured
number of repair iterations. All baselines share the same retrieval,
generation, and accounting pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Chunk, Example, count_tokens
from .index import RetrievalHit, VectorIndex, cosine
from .oracle import Gap, Ledger, OracleBackend
from .scoring import DEFAULT_WEIGHTS, TermBreakdown, UtilityWeights, score_candidate
from .selection import EvidenceState, effective_capacity, replace_update, select_evidence

MODE_ADAGATE = "adagate"
MODE_BASIC = "basic"
MODE_ADAPTIVE_K = "adaptive_k"
MODE_SEAL_STYLE = "seal_style"
MODES = (MODE_ADAGATE, MODE_BASIC, MODE_ADAPTIVE_K, MODE_SEAL_STYLE)

REASON_SUFFICIENT = "sufficient"
REASON_NO_USEFUL_REPAIR = "no_useful_repair"
REASON_MAX_ITERATIONS = "max_iterations"
REASON_NONE = "none"  # baselines run no repair loop

CHANNEL_SEED = "seed"
CHANNEL_GAP = "gap"
CHANNEL_FALLBACK = "fallback"


@dataclass(frozen=True)
class ControllerConfig:
    mode: str = MODE_ADAGATE
    max_iterations: int = 1
    k: int = 3
    budget: int = 3000
    buffer: int = 2
    weights: UtilityWeights = DEFAULT_WEIGHTS
    namespace: str = "clean"
    adaptive_pool: int = 20
    dedup_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.buffer < 0:
            raise ValueError("buffer must be non-negative")
        if self.adaptive_pool < 1:
            raise ValueError("adaptive_pool must be >= 1")


@dataclass
class IterationRecord:
    index: int
    ledger_size: int = 0
    sufficient: bool | None = None
    gaps: list[tuple[str, str]] = field(default_factory=list)
    queries: dict[str, list[str]] = field(default_factory=dict)
    hits: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    scores: dict[str, TermBreakdown] = field(default_factory=dict)
    k_eff: int = 0
    selected_ids: list[str] = field(default_factory=list)
    used_tokens: int = 0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "ledger_size": self.ledger_size,
            "sufficient": self.sufficient,
            "gaps": [list(g) for g in self.gaps],
            "queries": self.queries,
            "hits": {ch: [[cid, s] for cid, s in hits] for ch, hits in self.hits.items()},
            "scores": {cid: tb.as_dict() for cid, tb in sorted(self.scores.items())},
            "k_eff": self.k_eff,
            "selected_ids": self.selected_ids,
            "used_tokens": self.used_tokens,
        }


@dataclass
class ControllerTrace:
    example_id: str
    mode: str
    namespace: str
    iterations: list[IterationRecord] = field(default_factory=list)
    termination_reason: str = REASON_NONE
    final_answer: str = ""
    final_chunk_ids: list[str] = field(default_factory=list)
    final_titles: list[str] = field(default_factory=list)
    input_tokens: int = 0
    docs_passed: int = 0
    warnings: list[str] = field(default_factory=list)

    def as_dict(self, full: bool = False) -> dict:
        record = {
            "example_id": self.example_id,
            "mode": self.mode,
            "namespace": self.namespace,
            "termination_reason": self.termination_reason,
            "final_answer": self.final_answer,
            "final_chunk_ids": self.final_chunk_ids,
            "final_titles": self.final_titles,
            "input_tokens": self.input_tokens,
            "docs_passed": self.docs_passed,
            "warnings": self.warnings,
        }
        if full:
            record["iterations"] = [it.as_dict() for it in self.iterations]
        return record


def adaptive_cut(scores: Sequence[float]) -> int:
    """Prefix length ending at the largest adjacent drop in sorted scores."""
    return effective_capacity(scores, 0) if scores else 0


def _assemble_candidates(
    hit_groups: Sequence[Sequence[RetrievalHit]],
    index: VectorIndex,
    namespace: str,
    evidence: Sequence[Chunk],
    embedder,
    threshold: float,
) -> list[Chunk]:
    """Deduplicate retrieved hits into a candidate list.

    Drops ids already selected or already kept, and suppresses near
    duplicates: any candidate whose cosine against a selected passage or an
    earlier-kept candidate reaches ``threshold``. Hits are processed in
    channel order, then retrieval rank, so the assembly is deterministic.
    """
    kept: list[Chunk] = []
    kept_vecs = []
    evidence_ids = {c.chunk_id for c in evidence}
    evidence_vecs = [embedder.embed_one(c.text) for c in evidence]
    kept_ids: set[str] = set()
    for hits in hit_groups:
        for hit in hits:
            if hit.chunk_id in evidence_ids or hit.chunk_id in kept_ids:
                continue
            chunk = index.get_chunk(namespace, hit.chunk_id)
            vec = embedder.embed_one(chunk.text)
            if any(cosine(vec, other) >= threshold for other in evidence_vecs):
                continue
            if any(cosine(vec, other) >= threshold for other in kept_vecs):
                continue
            kept.append(chunk)
            kept_ids.add(hit.chunk_id)
            kept_vecs.append(vec)
    return kept


def run_adagate(
    example: Example,
    config: ControllerConfig,
    index: VectorIndex,
    oracle: OracleBackend,
) -> ControllerTrace:
    embedder = index.embedder
    question = example.question
    trace = ControllerTrace(example_id=example.id, mode=MODE_ADAGATE, namespace=config.namespace)

    def score(chunk: Chunk, ledger: Ledger, gaps: Sequence[Gap], evidence: Sequence[Chunk]) -> TermBreakdown:
        return score_candidate(
            chunk, question, ledger, gaps, evidence, config.weights, embedder=embedder, oracle=oracle
        )

    # Iteration 0: seed evidence from the raw question.
    seed_hits = index.query_top_k(config.namespace, question, config.k)
    seed_record = IterationRecord(index=0)
    seed_record.queries = {CHANNEL_SEED: [question]}
    seed_record.hits = {CHANNEL_SEED: [(h.chunk_id, h.score) for h in seed_hits]}
    candidates = _assemble_candidates(
        [seed_hits], index, config.namespace, [], embedder, config.dedup_threshold
    )
    empty_ledger = Ledger()
    scored = [(c, score(c, empty_ledger, [], [])) for c in candidates]
    seed_record.scores = {c.chunk_id: tb for c, tb in scored}
    if scored:
        utilities = sorted((tb.utility for _, tb in scored), reverse=True)
        k_eff = effective_capacity(utilities, config.buffer)
        state = select_evidence([(c, tb.utility) for c, tb in scored], k_eff, config.budget)
        seed_record.k_eff = k_eff
    else:
        state = EvidenceState(budget=config.budget)
    seed_record.selected_ids = state.chunk_ids
    seed_record.used_tokens = state.used_tokens
    trace.iterations.append(seed_record)

    reason = REASON_MAX_ITERATIONS
    for t in range(1, config.max_iterations + 1):
        record = IterationRecord(index=t)
        ledger = oracle.extract_ledger(state.selected)
        record.ledger_size = len(ledger)
        verdict = oracle.assess_sufficiency(question, ledger)
        record.sufficient = verdict.sufficient
        record.gaps = [(g.entity, g.relation) for g in verdict.gaps]
        if verdict.sufficient:
            record.selected_ids = state.chunk_ids
            record.used_tokens = state.used_tokens
            trace.iterations.append(record)
            reason = REASON_SUFFICIENT
            break

        gap_queries, fb_queries = oracle.make_queries(question, verdict.gaps)
        record.queries = {CHANNEL_GAP: gap_queries, CHANNEL_FALLBACK: fb_queries}
        gap_hits = [index.query_top_k(config.namespace, q, config.k) for q in gap_queries]
        fb_hits = [index.query_top_k(config.namespace, q, config.k) for q in fb_queries]
        record.hits = {
            CHANNEL_GAP: [(h.chunk_id, h.score) for hits in gap_hits for h in hits],
            CHANNEL_FALLBACK: [(h.chunk_id, h.score) for hits in fb_hits for h in hits],
        }
        candidates = _assemble_candidates(
            list(gap_hits) + list(fb_hits),
            index,
            config.namespace,
            state.selected,
            embedder,
            config.dedup_threshold,
        )
        scored_new = [(c, score(c, ledger, verdict.gaps, state.selected)) for c in candidates]
        record.scores = {c.chunk_id: tb for c, tb in scored_new}

        def rescore(chunk: Chunk, prior: list[Chunk]) -> float:
            return score(chunk, ledger, verdict.gaps, prior).utility

        sink: dict = {}
        previous_ids = state.chunk_ids
        new_state = replace_update(
            state,
            [(c, tb.utility) for c, tb in scored_new],
            rescore,
            buffer=config.buffer,
            trace_sink=sink,
        )
        new_state.iteration = t
        record.k_eff = sink.get("k_eff", 0)
        record.selected_ids = new_state.chunk_ids
        record.used_tokens = new_state.used_tokens
        trace.iterations.append(record)

        unchanged = new_state.chunk_ids == previous_ids
        rescored_old = dict(sink.get("rescored_current", []))
        min_selected = min(rescored_old.values()) if rescored_old else None
        max_new = max((tb.utility for _, tb in scored_new), default=None)
        no_outrank = (
            max_new is None
            or (min_selected is not None and max_new < min_selected)
        )
        state = new_state
        if unchanged and no_outrank:
            reason = REASON_NO_USEFUL_REPAIR
            break

    trace.termination_reason = reason
    trace.final_answer = oracle.generate_answer(question, state.selected)
    _finalize(trace, state.selected, question, oracle)
    return trace


def run_baseline(
    example: Example,
    config: ControllerConfig,
    index: VectorIndex,
    oracle: OracleBackend,
) -> ControllerTrace:
    question = example.question
    trace = ControllerTrace(example_id=example.id, mode=config.mode, namespace=config.namespace)
    record = IterationRecord(index=0)

    if config.mode == MODE_BASIC:
        hits = index.query_top_k(config.namespace, question, config.k)
        evidence = [index.get_chunk(config.namespace, h.chunk_id) for h in hits]
    elif config.mode == MODE_ADAPTIVE_K:
        hits = index.query_top_k(config.namespace, question, config.adaptive_pool)
        cut = adaptive_cut([h.score for h in hits])
        hits = hits[:cut]
        evidence = [index.get_chunk(config.namespace, h.chunk_id) for h in hits]
    elif config.mode == MODE_SEAL_STYLE:
        hits = index.query_top_k(config.namespace, question, config.k)
        retrieved = [index.get_chunk(config.namespace, h.chunk_id) for h in hits]
        evidence = _seal_select(question, retrieved, oracle)
        record.ledger_size = len(oracle.extract_ledger(retrieved))
    else:
        raise ValueError(f"mode {config.mode!r} is not a baseline")

    record.queries = {CHANNEL_SEED: [question]}
    record.hits = {CHANNEL_SEED: [(h.chunk_id, h.score) for h in hits]}
    record.selected_ids = [c.chunk_id for c in evidence]
    record.used_tokens = sum(c.token_len for c in evidence)
    trace.iterations.append(record)

    trace.termination_reason = REASON_NONE
    trace.final_answer = oracle.generate_answer(question, evidence)
    _finalize(trace, evidence, question, oracle)
    return trace


def _seal_select(question: str, retrieved: Sequence[Chunk], oracle: OracleBackend) -> list[Chunk]:
    """Keep only the chunks sourcing the single best question-matching fact.

    Falls back to the best fact of any kind when no slot matches, and to
    the top retrieved chunk when the ledger is empty, reproducing the
    one-document collapse of entity-selection controllers.
    """
    if not retrieved:
        return []
    ledger = oracle.extract_ledger(retrieved)
    matched = []
    if hasattr(oracle, "match_slots"):
        matched = oracle.match_slots(question, ledger)
    candidates = sorted(
        matched or ledger.facts,
        key=lambda f: (-f.confidence, f.entity, f.relation, f.value, f.source_chunk),
    )
    if not candidates:
        return [retrieved[0]]
    best = candidates[0]
    return [c for c in retrieved if c.chunk_id == best.source_chunk]


def run_example(
    example: Example,
    config: ControllerConfig,
    index: VectorIndex,
    oracle: OracleBackend,
) -> ControllerTrace:
    if config.mode == MODE_ADAGATE:
        return run_adagate(example, config, index, oracle)
    return run_baseline(example, config, index, oracle)


def _finalize(
    trace: ControllerTrace,
    evidence: Sequence[Chunk],
    question: str,
    oracle: OracleBackend,
) -> None:
    trace.final_chunk_ids = [c.chunk_id for c in evidence]
    trace.final_titles = [c.title for c in evidence]
    trace.docs_passed = len(evidence)
    trace.input_tokens = count_tokens(question) + sum(c.token_len for c in evidence)
    trace.warnings = list(getattr(oracle, "warnings", []))
