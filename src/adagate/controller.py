"""Evidence controllers: the gap-aware repair loop and the baselines.

The repair controller runs one step per iteration: query, deduplicate the
hits into candidates, score them, and re-select the evidence set from the
current members plus the candidates under the token budget
(``replace_update``). Iteration 0 is that step over empty evidence, with an
empty ledger, no gaps, and the raw question as its only query. Each repair
iteration after it first extracts the ledger and assesses sufficiency, then
queries with gap micro-queries plus question-anchored fallback queries. The
loop stops when the verdict is sufficient, when a repair iteration returns
the chunk ids it started from (the next one would repeat it exactly), or
after the configured number of repair iterations. All baselines share the
same retrieval, generation, and accounting pipeline.

A repair run computes each retrieval, each cosine and each repair step
once: fallback queries repeat every iteration (the first is the question
itself), hits come back again, members are re-scored against the same
passages, and a selection can cycle (A, then B, then A again). Each call
keeps its own memos, plain dicts read with a get-or-compute: hits by query
string, a stored entry by chunk id, a chunk-chunk cosine by the sorted id
pair (``cosine`` is symmetric bit for bit) and a chunk-query cosine by
chunk id and query string. (A ``functools.cache`` wrapper took about 2 µs
to build, four per run, and a ``dict`` subclass with ``__missing__`` costs
more than the get, since most lookups within a run are misses.) Candidate
dedup and the gap coverage, redundancy and question relevance terms all
read them. A repair step (t >= 1) is keyed by the ordered chunk ids it
starts from, which are all it reads; one that starts where an earlier one
did takes that step's record, renumbered, and its evidence, with no
oracle call, retrieval or scoring. The replayed step was insufficient and
changed the selection, so the run goes on to the same end. All of these
die with the call: the namespace, ``k`` and stored vectors are fixed only
within a run (an upsert may change them between runs), and concurrent
runs share nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Sequence

from .corpus import Chunk, Example, count_tokens
from .index import Vector, VectorIndex, cosine
from .oracle import Ledger, OracleBackend, resolve_slots
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

ADAPTIVE_POOL = 20  # retrieval depth that the adaptive_k baseline cuts
DEDUP_THRESHOLD = 0.95  # cosine at or above which a candidate is a near-duplicate


@dataclass(frozen=True)
class ControllerConfig:
    mode: str = MODE_ADAGATE
    max_iterations: int = 1
    k: int = 3
    budget: int = 3000
    buffer: int = 2
    weights: UtilityWeights = DEFAULT_WEIGHTS
    namespace: str = "clean"

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
        """The trace as plain data; the per-iteration records only when ``full``.

        The result shares the trace's lists and dicts, not copies of them:
        ``run`` serializes it at once and the benchmark only reads it.
        """
        record = {name: value for name, value in vars(self).items() if name != "iterations"}
        if full:
            record["iterations"] = [
                dict(vars(it), scores={cid: vars(tb) for cid, tb in it.scores.items()}) for it in self.iterations
            ]
        return record


def adaptive_cut(scores: Sequence[float]) -> int:
    """Prefix length ending at the largest adjacent drop in sorted scores."""
    return effective_capacity(scores, 0) if scores else 0


def _assemble_candidates(
    hits: Iterable[tuple[str, float]],
    evidence: Sequence[Chunk],
    chunk_sim: Callable[[str, str], float],
    entry: Callable[[str], tuple[Chunk, Vector]],
) -> list[Chunk]:
    """Deduplicate retrieved ``(chunk_id, score)`` hits into a candidate list.

    Drops ids already selected or already kept, and suppresses near
    duplicates: any candidate whose cosine (``chunk_sim`` of two chunk ids)
    against a selected passage or an earlier-kept candidate reaches
    ``DEDUP_THRESHOLD``. Hits are processed in the order given (channel,
    query, then retrieval rank), so the assembly is deterministic.
    """
    others = [c.chunk_id for c in evidence]
    kept: list[Chunk] = []
    for chunk_id, _ in hits:
        if chunk_id in others or any(chunk_sim(chunk_id, other) >= DEDUP_THRESHOLD for other in others):
            continue
        kept.append(entry(chunk_id)[0])
        others.append(chunk_id)
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

    # The run's memos, keyed as the module docstring says; each dies with the run.
    hit_memo: dict[str, list[tuple[str, float]]] = {}
    entry_memo: dict[str, tuple[Chunk, Vector]] = {}
    chunk_sim_memo: dict[tuple[str, str], float] = {}
    query_sim_memo: dict[tuple[str, str], float] = {}

    def hits(query: str) -> list[tuple[str, float]]:
        found = hit_memo.get(query)
        if found is None:
            found = hit_memo[query] = index.query_top_k(config.namespace, query, config.k)
        return found

    def entry(chunk_id: str) -> tuple[Chunk, Vector]:
        found = entry_memo.get(chunk_id)
        if found is None:
            found = entry_memo[chunk_id] = index.get_entry(config.namespace, chunk_id)
        return found

    def chunk_sim(a: str, b: str) -> float:
        pair = (a, b) if a < b else (b, a)
        sim = chunk_sim_memo.get(pair)
        if sim is None:
            sim = chunk_sim_memo[pair] = cosine(entry(pair[0])[1], entry(pair[1])[1])
        return sim

    def query_sim(chunk_id: str, query: str) -> float:
        key = (chunk_id, query)
        sim = query_sim_memo.get(key)
        if sim is None:
            sim = query_sim_memo[key] = cosine(entry(chunk_id)[1], index.embedder.embed_one(query))
        return sim

    def score(chunk: Chunk, evidence: Sequence[Chunk]) -> TermBreakdown:
        chunk_id = chunk.chunk_id
        return score_candidate(
            chunk,
            query_sim(chunk_id, question),
            [query_sim(chunk_id, q) for q in gap_queries],
            [chunk_sim(chunk_id, c.chunk_id) for c in evidence],
            ledger,
            config.weights,
            oracle=oracle,
        )

    # Iteration 0 is the repair step over empty evidence, seeded by the question.
    state = EvidenceState(budget=config.budget)
    ledger = Ledger()
    gap_queries: list[str] = []
    queries = {CHANNEL_SEED: [question]}
    reason = REASON_MAX_ITERATIONS
    repaired: dict[tuple[str, ...], tuple[IterationRecord, EvidenceState]] = {}
    for t in range(config.max_iterations + 1):
        # A repair step reads only the selection it starts from: one that starts
        # where an earlier repair step did would repeat it, so it replays it.
        key = tuple(state.chunk_ids)
        if key in repaired:
            record, state = repaired[key]
            trace.iterations.append(replace(record, index=t))
            continue
        # The evidence as found, until the re-selection below overwrites it.
        record = IterationRecord(index=t, selected_ids=state.chunk_ids, used_tokens=state.used_tokens)
        trace.iterations.append(record)
        if t:
            ledger = oracle.extract_ledger(state.selected)
            record.ledger_size = len(ledger)
            verdict = oracle.assess_sufficiency(question, ledger)
            record.sufficient = verdict.sufficient
            record.gaps = [(g.entity, g.relation) for g in verdict.gaps]
            if verdict.sufficient:
                reason = REASON_SUFFICIENT
                break
            gap_queries, fb_queries = oracle.make_queries(question, verdict.gaps)
            queries = {CHANNEL_GAP: gap_queries, CHANNEL_FALLBACK: fb_queries}

        record.queries = queries
        record.hits = {ch: [h for q in qs for h in hits(q)] for ch, qs in queries.items()}
        candidates = _assemble_candidates(chain.from_iterable(record.hits.values()), state.selected, chunk_sim, entry)
        scored = [(c, score(c, state.selected)) for c in candidates]
        record.scores = {c.chunk_id: tb for c, tb in sorted(scored, key=lambda pair: pair[0].chunk_id)}
        previous_ids = record.selected_ids
        new = [(c, tb.utility) for c, tb in scored]
        state = replace_update(state, new, lambda chunk, prior: score(chunk, prior).utility, buffer=config.buffer)
        record.k_eff, record.selected_ids, record.used_tokens = state.k_eff, state.chunk_ids, state.used_tokens

        # The next iteration's inputs all derive from the selection: after a repair
        # that left it unchanged they would be the same, and so would its result.
        if t and record.selected_ids == previous_ids:
            reason = REASON_NO_USEFUL_REPAIR
            break
        if t:
            repaired[key] = record, state

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

    if config.mode not in (MODE_BASIC, MODE_ADAPTIVE_K, MODE_SEAL_STYLE):
        raise ValueError(f"mode {config.mode!r} is not a baseline")
    depth = ADAPTIVE_POOL if config.mode == MODE_ADAPTIVE_K else config.k
    hits = index.query_top_k(config.namespace, question, depth)
    if config.mode == MODE_ADAPTIVE_K:
        hits = hits[: adaptive_cut([score for _, score in hits])]
    evidence = [index.get_chunk(config.namespace, chunk_id) for chunk_id, _ in hits]
    if config.mode == MODE_SEAL_STYLE:
        ledger = oracle.extract_ledger(evidence)
        evidence = _seal_select(question, evidence, ledger)
        record.ledger_size = len(ledger)

    record.queries = {CHANNEL_SEED: [question]}
    record.hits = {CHANNEL_SEED: hits}
    record.selected_ids = [c.chunk_id for c in evidence]
    record.used_tokens = sum(c.token_len for c in evidence)
    trace.iterations.append(record)

    trace.termination_reason = REASON_NONE
    trace.final_answer = oracle.generate_answer(question, evidence)
    _finalize(trace, evidence, question, oracle, warned)
    return trace


def _seal_select(question: str, retrieved: Sequence[Chunk], ledger: Ledger) -> list[Chunk]:
    """Keep only the chunks of ``retrieved`` sourcing its ledger's best question-matching fact.

    Falls back to the best fact of any kind when no slot matches, and to
    the top retrieved chunk when the ledger is empty, reproducing the
    one-document collapse of entity-selection controllers.
    """
    if not retrieved:
        return []
    candidates = sorted(
        [f for *_, f in resolve_slots(question, ledger) if f] or ledger.facts,
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
