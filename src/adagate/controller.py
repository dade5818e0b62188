"""Evidence controllers: the gap-aware repair loop and the baselines.

The repair controller runs one step per iteration: query, deduplicate the
hits into candidates, score them, and re-select the evidence set from the
current members plus the candidates under the token budget
(``replace_update``). Iteration 0 is that step over empty evidence, with an
empty ledger, no gaps, and the raw question as its only query. Each repair
iteration after it first extracts the ledger and assesses sufficiency, then
queries with gap micro-queries plus question-anchored fallback queries. The
loop stops when the verdict is sufficient, when a repair changes nothing and
no new candidate outranks the weakest re-scored member, or after the
configured number of repair iterations. All baselines share the same
retrieval, generation, and accounting pipeline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from .corpus import Chunk, Example, count_tokens
from .index import RetrievalHit, VectorIndex, cosine
from .oracle import Gap, Ledger, OracleBackend, match_slots
# The benchmark's traced pass wraps score_candidate, effective_capacity,
# select_evidence and replace_update by looking each name up in this module
# (vars(controller)[name]), so all four stay bound here: select_evidence too,
# although every selection goes through replace_update.
from .scoring import DEFAULT_WEIGHTS, TermBreakdown, UtilityWeights, score_candidate
from .selection import EvidenceState, effective_capacity, replace_update, select_evidence  # noqa: F401

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
    scores: dict[str, TermBreakdown] = field(default_factory=dict)  # in chunk-id order
    k_eff: int = 0
    selected_ids: list[str] = field(default_factory=list)
    used_tokens: int = 0


@dataclass
class ControllerTrace:
    """One example's run; ``as_dict`` lists the fields in declaration order."""

    example_id: str
    mode: str
    namespace: str
    termination_reason: str = REASON_NONE
    final_answer: str = ""
    final_chunk_ids: list[str] = field(default_factory=list)
    final_titles: list[str] = field(default_factory=list)
    input_tokens: int = 0
    docs_passed: int = 0
    warnings: list[str] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)

    def as_dict(self, full: bool = False) -> dict:
        """The trace as plain data; the per-iteration records only when ``full``."""
        record = asdict(self)
        if not full:
            del record["iterations"]
        return record


def adaptive_cut(scores: Sequence[float]) -> int:
    """Prefix length ending at the largest adjacent drop in sorted scores."""
    return effective_capacity(scores, 0) if scores else 0


def _assemble_candidates(
    hits: Iterable[RetrievalHit],
    index: VectorIndex,
    evidence: Sequence[Chunk],
    config: ControllerConfig,
) -> list[Chunk]:
    """Deduplicate retrieved hits into a candidate list.

    Drops ids already selected or already kept, and suppresses near
    duplicates: any candidate whose cosine against a selected passage or an
    earlier-kept candidate reaches ``config.dedup_threshold``. Hits are
    processed in the order given (channel, query, then retrieval rank), so
    the assembly is deterministic.
    """
    embedder, namespace, threshold = index.embedder, config.namespace, config.dedup_threshold
    kept: list[Chunk] = []
    kept_vecs = []
    evidence_ids = {c.chunk_id for c in evidence}
    evidence_vecs = [embedder.embed_one(c.text) for c in evidence]
    kept_ids: set[str] = set()
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
    question = example.question
    trace = ControllerTrace(example_id=example.id, mode=MODE_ADAGATE, namespace=config.namespace)
    warned = len(getattr(oracle, "warnings", []))

    def score(chunk: Chunk, evidence: Sequence[Chunk]) -> TermBreakdown:
        return score_candidate(
            chunk, question, ledger, gaps, evidence, config.weights, embedder=index.embedder, oracle=oracle
        )

    # Iteration 0 is the repair step over empty evidence, seeded by the question.
    state = EvidenceState(budget=config.budget)
    ledger = Ledger()
    gaps: Sequence[Gap] = ()
    queries = {CHANNEL_SEED: [question]}
    reason = REASON_MAX_ITERATIONS
    for t in range(config.max_iterations + 1):
        record = IterationRecord(index=t)
        if t:
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
            gaps = verdict.gaps
            gap_queries, fb_queries = oracle.make_queries(question, gaps)
            queries = {CHANNEL_GAP: gap_queries, CHANNEL_FALLBACK: fb_queries}

        record.queries = queries
        hits = {
            ch: [h for q in qs for h in index.query_top_k(config.namespace, q, config.k)] for ch, qs in queries.items()
        }
        record.hits = {ch: [(h.chunk_id, h.score) for h in channel_hits] for ch, channel_hits in hits.items()}
        candidates = _assemble_candidates(chain.from_iterable(hits.values()), index, state.selected, config)
        scored = [(c, score(c, state.selected)) for c in candidates]
        record.scores = {c.chunk_id: tb for c, tb in sorted(scored, key=lambda pair: pair[0].chunk_id)}
        rescored: list[float] = []

        def rescore(chunk: Chunk, prior: list[Chunk]) -> float:
            rescored.append(score(chunk, prior).utility)
            return rescored[-1]

        previous_ids = state.chunk_ids
        state = replace_update(state, [(c, tb.utility) for c, tb in scored], rescore, buffer=config.buffer)
        record.k_eff = state.k_eff
        record.selected_ids = state.chunk_ids
        record.used_tokens = state.used_tokens
        trace.iterations.append(record)

        # A repair that changed nothing, with no new candidate outranking the
        # weakest re-scored member, would repeat itself.
        max_new = max((tb.utility for _, tb in scored), default=None)
        no_outrank = max_new is None or (bool(rescored) and max_new < min(rescored))
        if t and state.chunk_ids == previous_ids and no_outrank:
            reason = REASON_NO_USEFUL_REPAIR
            break

    trace.termination_reason = reason
    trace.final_answer = oracle.generate_answer(question, state.selected)
    _finalize(trace, state.selected, question, oracle, warned)
    return trace


def run_baseline(
    example: Example,
    config: ControllerConfig,
    index: VectorIndex,
    oracle: OracleBackend,
) -> ControllerTrace:
    question = example.question
    trace = ControllerTrace(example_id=example.id, mode=config.mode, namespace=config.namespace)
    warned = len(getattr(oracle, "warnings", []))
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
    _finalize(trace, evidence, question, oracle, warned)
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
    candidates = sorted(
        match_slots(question, ledger) or ledger.facts,
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
    warned: int,
) -> None:
    """Fill the trace's final fields; its warnings are those after the first ``warned``."""
    trace.final_chunk_ids = [c.chunk_id for c in evidence]
    trace.final_titles = [c.title for c in evidence]
    trace.docs_passed = len(evidence)
    trace.input_tokens = count_tokens(question) + sum(c.token_len for c in evidence)
    trace.warnings = list(getattr(oracle, "warnings", [])[warned:])
