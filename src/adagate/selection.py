"""Capacity estimation and budgeted greedy evidence assembly.

The effective capacity cuts a sorted utility list at its largest adjacent
drop (smallest index on ties, preferring compact contexts) plus a small
buffer, clamped to the pool size. Selection then admits candidates in
utility order, skipping any whose length would break the token budget and
continuing down the list, so the budget holds after every operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .corpus import Chunk

ScoredChunk = tuple[Chunk, float]
RescoreFn = Callable[[Chunk, list[Chunk]], float]


@dataclass
class EvidenceState:
    """Currently selected evidence, its token accounting, and the capacity used.

    ``k_eff`` is the capacity the selection ran with; 0 when the pool was
    empty and no selection ran.
    """

    selected: list[Chunk] = field(default_factory=list)
    budget: int = 3000
    used_tokens: int = 0
    k_eff: int = 0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        expected = sum(c.token_len for c in self.selected)
        if self.used_tokens != expected:
            raise ValueError(f"used_tokens {self.used_tokens} != sum of chunk lengths {expected}")
        if self.used_tokens > self.budget:
            raise ValueError(f"used_tokens {self.used_tokens} exceeds budget {self.budget}")

    @property
    def chunk_ids(self) -> list[str]:
        return [c.chunk_id for c in self.selected]


def effective_capacity(sorted_utilities: Sequence[float], buffer: int) -> int:
    """Capacity from a non-increasing utility list: largest-drop index + buffer.

    Ties go to the smallest index. A single candidate has no drops and
    yields capacity 1. The result is clamped to [1, len(list)].
    """
    if buffer < 0:
        raise ValueError("buffer must be non-negative")
    m = len(sorted_utilities)
    if m == 0:
        raise ValueError("utility list must be non-empty")
    for i in range(m - 1):
        if sorted_utilities[i] < sorted_utilities[i + 1]:
            raise ValueError("utility list must be sorted non-increasing")
    if m == 1:
        return 1
    best_drop = None
    i_star = 1
    for i in range(m - 1):
        drop = sorted_utilities[i] - sorted_utilities[i + 1]
        if best_drop is None or drop > best_drop:
            best_drop = drop
            i_star = i + 1
    return min(max(i_star + buffer, 1), m)


def select_evidence(
    scored: Sequence[ScoredChunk],
    k_eff: int,
    budget: int,
) -> EvidenceState:
    """Greedy budgeted selection over the k_eff highest-utility candidates.

    Candidates are ordered by utility descending with chunk id as the tie
    break; each is admitted unless it would exceed the remaining budget,
    in which case it is skipped and the scan continues.
    """
    if k_eff < 1:
        raise ValueError("k_eff must be positive")
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0].chunk_id))[:k_eff]
    selected: list[Chunk] = []
    used = 0
    for chunk, _ in ranked:
        if used + chunk.token_len <= budget:
            selected.append(chunk)
            used += chunk.token_len
    return EvidenceState(selected=selected, budget=budget, used_tokens=used, k_eff=k_eff)


def union_pool(
    rescored_current: Sequence[ScoredChunk],
    new_candidates: Sequence[ScoredChunk],
) -> list[ScoredChunk]:
    """Merge pools, deduplicating by chunk id and keeping the higher utility.

    The result is in first-seen id order; ``select_evidence`` ranks it.
    """
    best: dict[str, ScoredChunk] = {}
    for chunk, utility in list(rescored_current) + list(new_candidates):
        existing = best.get(chunk.chunk_id)
        if existing is None or utility > existing[1]:
            best[chunk.chunk_id] = (chunk, utility)
    return list(best.values())


def replace_update(
    current: EvidenceState,
    new_candidates: Sequence[ScoredChunk],
    rescore: RescoreFn,
    *,
    buffer: int,
) -> EvidenceState:
    """Re-select evidence from re-scored current members plus new candidates.

    Current members are re-scored in their selected order; ``rescore``
    receives each chunk together with the members ranked before it, so the
    redundancy penalty looks at the already-kept prefix rather than the
    member itself. Retained evidence must re-earn its place: capacity is
    recomputed over the merged pool and selection runs from scratch under
    the same budget. The returned state carries that capacity as ``k_eff``
    (0 for an empty pool). Over empty evidence this is the first selection.
    """
    rescored: list[ScoredChunk] = []
    prior: list[Chunk] = []
    for chunk in current.selected:
        rescored.append((chunk, rescore(chunk, prior)))
        prior.append(chunk)
    pool = union_pool(rescored, new_candidates)
    if not pool:
        return EvidenceState(budget=current.budget)
    k_eff = effective_capacity(sorted((u for _, u in pool), reverse=True), buffer)
    return select_evidence(pool, k_eff, current.budget)
