"""Utility scoring for candidate passages.

Each candidate gets five terms in [0, 1], combined linearly:

* gap coverage: best cosine between the candidate and any open gap query;
* corroboration: best token-containment match against a low-confidence
  ledger fact (confidence below 0.75), 0 when none exist;
* novelty: fraction of the candidate's extractable (entity, relation)
  pairs absent from the ledger, as reported by the oracle backend;
* redundancy: highest cosine against any already-selected passage
  (a penalty);
* question relevance: cosine against the question, the fallback signal.

``utility = l1*gap_cov + l2*corr + l3*nov - l4*red + l5*rel_q``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import Chunk
from .index import cosine, normalize_tokens
from .oracle import Gap, Ledger

CORROBORATION_CEILING = 0.75


@dataclass(frozen=True)
class UtilityWeights:
    lambda1: float = 0.30  # gap coverage
    lambda2: float = 0.15  # corroboration
    lambda3: float = 0.15  # novelty
    lambda4: float = 0.25  # redundancy penalty
    lambda5: float = 0.15  # question relevance

    def __post_init__(self) -> None:
        values = (self.lambda1, self.lambda2, self.lambda3, self.lambda4, self.lambda5)
        if any(v < 0 for v in values):
            raise ValueError("utility weights must be non-negative")
        if not any(v > 0 for v in values):
            raise ValueError("at least one utility weight must be positive")


DEFAULT_WEIGHTS = UtilityWeights()


@dataclass(frozen=True)
class TermBreakdown:
    gap_cov: float
    corr: float
    nov: float
    red: float
    rel_q: float
    utility: float


def combine(weights: UtilityWeights, gap_cov: float, corr: float, nov: float, red: float, rel_q: float) -> float:
    """The exact linear combination; kept separate so tests can pin the identity."""
    return (
        weights.lambda1 * gap_cov
        + weights.lambda2 * corr
        + weights.lambda3 * nov
        - weights.lambda4 * red
        + weights.lambda5 * rel_q
    )


def _clamp01(value: float) -> float:
    return max(0.0, min(1.0, value))


def _containment(fact_text: str, chunk_tokens: set[str]) -> float:
    fact_tokens = normalize_tokens(fact_text)
    if not fact_tokens:
        return 0.0
    return len([t for t in fact_tokens if t in chunk_tokens]) / len(fact_tokens)


def score_candidate(
    candidate: Chunk,
    question: str,
    ledger: Ledger,
    gaps: Sequence[Gap],
    evidence: Sequence[Chunk],
    weights: UtilityWeights,
    *,
    embedder,
    oracle,
) -> TermBreakdown:
    """Score one candidate against the current controller state.

    Reads but never mutates the ledger and evidence, so candidates may be
    scored in parallel. Empty gaps, an empty evidence set, and a chunk with
    no extractable pairs all yield 0 for their respective terms.
    """
    vec = embedder.embed_one(candidate.text)

    gap_cov = 0.0
    for gap in gaps:
        gap_vec = embedder.embed_one(f"{gap.entity} {gap.relation}".strip())
        gap_cov = max(gap_cov, _clamp01(cosine(vec, gap_vec)))

    corr = 0.0
    low = ledger.low_confidence(CORROBORATION_CEILING)
    if low:
        chunk_tokens = set(normalize_tokens(candidate.text))
        for fact in low:
            corr = max(corr, _containment(fact.as_text(), chunk_tokens))

    nov = _clamp01(oracle.novelty(candidate, ledger))

    red = 0.0
    for selected in evidence:
        red = max(red, _clamp01(cosine(vec, embedder.embed_one(selected.text))))

    rel_q = _clamp01(cosine(vec, embedder.embed_one(question)))

    return TermBreakdown(
        gap_cov=gap_cov,
        corr=corr,
        nov=nov,
        red=red,
        rel_q=rel_q,
        utility=combine(weights, gap_cov, corr, nov, red, rel_q),
    )
