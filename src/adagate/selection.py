"""Capacity estimation and budgeted greedy evidence assembly.

The effective capacity cuts a sorted utility list at its largest adjacent
drop (smallest index on ties, preferring compact contexts) plus a small
buffer, clamped to the pool size. Selection then admits candidates in
utility order, skipping any whose length would break the token budget and
continuing down the list, so the budget holds after every operation.

A pool holds each chunk id once: ``select_evidence`` and ``EvidenceState``
refuse a repeat. A re-selection's pool is the re-scored members followed by
new candidates that share no id with them, which the controller's
``_assemble_candidates`` guarantees by dropping every selected id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .corpus import Chunk

ScoredChunk = tuple[Chunk, float]
RescoreFn = Callable[[Chunk, list[Chunk]], float]


@dataclass
class EvidenceState:
    """Currently selected evidence, its token accounting, and the capacity used.

    ``used_tokens`` is computed here as the sum of the selected chunks'
    ``token_len`` and must not exceed ``budget``. ``k_eff`` is the capacity
    the selection ran with; 0 when the pool was empty and no selection ran.
    """

    budget: int
    selected: list[Chunk] = field(default_factory=list)
    used_tokens: int = field(init=False)
    k_eff: int = 0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        _refuse_repeats(self.selected)
        self.used_tokens = sum(c.token_len for c in self.selected)
        if self.used_tokens > self.budget:
            raise ValueError(f"used_tokens {self.used_tokens} exceeds budget {self.budget}")

    @property
    def chunk_ids(self) -> list[str]:
        return [c.chunk_id for c in self.selected]


def _refuse_repeats(chunks: Iterable[Chunk]) -> None:
    seen: set[str] = set()
    for chunk in chunks:
        if chunk.chunk_id in seen:
            raise ValueError(f"chunk {chunk.chunk_id!r} appears twice")
        seen.add(chunk.chunk_id)


def effective_capacity(sorted_utilities: Sequence[float], buffer: int) -> int:
    """Capacity from a non-increasing utility list: largest-drop index + buffer.

    Ties go to the smallest index. A single candidate has no drops and
    yields capacity 1. The result lies in [1, len(list)].
    """
    if buffer < 0:
        raise ValueError("buffer must be non-negative")
    m = len(sorted_utilities)
    if m == 0:
        raise ValueError("utility list must be non-empty")
    for i in range(m - 1):
        if sorted_utilities[i] < sorted_utilities[i + 1]:
            raise ValueError("utility list must be sorted non-increasing")
    best_drop = None
    i_star = 1
    for i in range(m - 1):
        drop = sorted_utilities[i] - sorted_utilities[i + 1]
        if best_drop is None or drop > best_drop:
            best_drop = drop
            i_star = i + 1
    return min(i_star + buffer, m)


def select_evidence(
    scored: Sequence[ScoredChunk],
    k_eff: int,
    budget: int,
) -> EvidenceState:
    """Greedy budgeted selection over the k_eff highest-utility candidates.

    Candidates are ordered by utility descending with chunk id as the tie
    break; each is admitted unless it would exceed the remaining budget,
    in which case it is skipped and the scan continues. A chunk id that
    appears twice in ``scored`` is a ``ValueError``.
    """
    if k_eff < 1:
        raise ValueError("k_eff must be positive")
    _refuse_repeats(chunk for chunk, _ in scored)
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0].chunk_id))[:k_eff]
    selected: list[Chunk] = []
    used = 0
    for chunk, _ in ranked:
        if used + chunk.token_len <= budget:
            selected.append(chunk)
            used += chunk.token_len
    return EvidenceState(selected=selected, budget=budget, k_eff=k_eff)


def replace_update(
    current: EvidenceState,
    new_candidates: Sequence[ScoredChunk],
    rescore: RescoreFn,
    *,
    buffer: int,
) -> EvidenceState:
    """Re-select evidence from re-scored current members plus new candidates.

    Current members are re-scored in their selected order; ``rescore``
    receives each chunk together with its own list of the members ranked
    before it, so the redundancy penalty looks at the already-kept prefix
    rather than the member itself. The pool is the members followed by
    ``new_candidates``, which share no id with them (``_assemble_candidates``
    guarantees it; a repeat is a ``ValueError``). Retained evidence must
    re-earn its place: capacity is recomputed over the pool and selection
    runs from scratch under the same budget. The returned state carries that
    capacity as ``k_eff`` (0 for an empty pool). Over empty evidence this is
    the first selection.
    """
    members = current.selected
    pool = [(chunk, rescore(chunk, members[:i])) for i, chunk in enumerate(members)] + list(new_candidates)
    if not pool:
        return EvidenceState(budget=current.budget)
    k_eff = effective_capacity(sorted((u for _, u in pool), reverse=True), buffer)
    return select_evidence(pool, k_eff, current.budget)
