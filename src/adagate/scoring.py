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

Scoring never embeds and computes no cosine: the caller passes in the
similarities of the candidate's indexed vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Chunk
from .index import normalize_tokens
from .oracle import Ledger

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
        if not all(map(math.isfinite, values)):
            raise ValueError("utility weights must be finite")
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


def _containment(fact_text: str, chunk_tokens: set[str]) -> float:
    fact_tokens = normalize_tokens(fact_text)
    if not fact_tokens:
        return 0.0
    return len([t for t in fact_tokens if t in chunk_tokens]) / len(fact_tokens)


def score_candidate(
    candidate: Chunk,
    question_sim: float,
    gap_sims: Sequence[float],
    evidence_sims: Sequence[float],
    ledger: Ledger,
    weights: UtilityWeights,
    *,
    oracle,
) -> TermBreakdown:
    """Score one candidate against the controller state.

    The similarities are cosines of the candidate's indexed vector:
    ``question_sim`` against the question, ``gap_sims`` against each open
    gap query and ``evidence_sims`` against each already-selected passage.
    Reads but never mutates its arguments, so candidates may be scored in
    parallel. Empty gaps, an empty evidence set, and a chunk with no
    extractable pairs all yield 0 for their respective terms.
    """
    # Each term's clamp to [0, 1] is written out: a call per term cost more than the term.
    gap_cov = 0.0
    for sim in gap_sims:
        gap_cov = max(gap_cov, max(0.0, min(1.0, sim)))

    corr = 0.0
    low = ledger.low_confidence(CORROBORATION_CEILING)
    if low:
        chunk_tokens = set(normalize_tokens(candidate.text))
        for fact in low:
            corr = max(corr, _containment(fact.as_text(), chunk_tokens))

    nov = max(0.0, min(1.0, oracle.novelty(candidate, ledger)))

    red = 0.0
    for sim in evidence_sims:
        red = max(red, max(0.0, min(1.0, sim)))

    rel_q = max(0.0, min(1.0, question_sim))

    return TermBreakdown(
        gap_cov=gap_cov,
        corr=corr,
        nov=nov,
        red=red,
        rel_q=rel_q,
        utility=combine(weights, gap_cov, corr, nov, red, rel_q),
    )
