from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adagate.selection import (
    EvidenceState,
    effective_capacity,
    replace_update,
    select_evidence,
)

from helpers import sized_chunk


def capacity_oracle(scores, buffer):
    # Brute-force drop enumeration, independent of the implementation.
    m = len(scores)
    if m == 1:
        return 1
    drops = [(scores[i] - scores[i + 1], i + 1) for i in range(m - 1)]
    best = max(drop for drop, _ in drops)
    i_star = min(i for drop, i in drops if drop == best)
    return min(max(i_star + buffer, 1), m)


def test_capacity_tiny_two_candidate_case():
    # Two candidates, buffer 2: 1 + 2 clamps to the pool size.
    assert effective_capacity([0.19, 0.15], 2) == 2


def test_capacity_drop_enumeration_example():
    # drops: (0.1, 0.5, 0.1) -> largest at index 2 -> 2 + 2 = 4
    assert effective_capacity([0.9, 0.8, 0.3, 0.2], 2) == 4


def test_capacity_single_candidate():
    assert effective_capacity([0.5], 2) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        effective_capacity([], 2)
    with pytest.raises(ValueError):
        effective_capacity([0.1, 0.5], 2)
    with pytest.raises(ValueError):
        effective_capacity([0.5, 0.4], -1)


def test_capacity_ties_prefer_smallest_index():
    # drops: (0.2, 0.2) -> smallest argmax index 1 -> 1 + 1 = 2
    assert effective_capacity([0.9, 0.7, 0.5], 1) == 2


def test_capacity_matches_oracle_on_random_lists():
    rng = random.Random(5)
    for _ in range(500):
        m = rng.randint(1, 16)
        scores = sorted((round(rng.uniform(0, 1), 6) for _ in range(m)), reverse=True)
        buffer = rng.randint(0, 4)
        assert effective_capacity(scores, buffer) == capacity_oracle(scores, buffer)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([2.0, 4.0, 0.5, 0.25, 8.0]),
)
def test_capacity_invariant_under_exact_positive_scaling(values, buffer, scale):
    scores = sorted((float(v) for v in values), reverse=True)
    scaled = [v * scale for v in scores]
    assert effective_capacity(scaled, buffer) == effective_capacity(scores, buffer)


def test_select_prefix_when_everything_fits():
    scored = [(sized_chunk(f"c{i}", 100), 0.9 - 0.1 * i) for i in range(3)]
    state = select_evidence(scored, k_eff=3, budget=1000)
    assert state.chunk_ids == ["c0", "c1", "c2"]
    assert state.used_tokens == 300


def test_select_skip_and_continue():
    scored = [
        (sized_chunk("a", 1200), 0.9),
        (sized_chunk("b", 2500), 0.8),
        (sized_chunk("c", 900), 0.7),
    ]
    state = select_evidence(scored, k_eff=3, budget=3000)
    assert state.chunk_ids == ["a", "c"]
    assert state.used_tokens == 2100


def test_select_empty_candidates():
    state = select_evidence([], k_eff=1, budget=100)
    assert state.selected == []
    assert state.used_tokens == 0


def test_select_requires_positive_budget_and_capacity():
    with pytest.raises(ValueError):
        select_evidence([], k_eff=1, budget=0)
    with pytest.raises(ValueError):
        select_evidence([], k_eff=0, budget=10)


def test_select_considers_only_k_eff_top_with_id_ties():
    scored = [
        (sized_chunk("b", 10), 0.5),
        (sized_chunk("a", 10), 0.5),
        (sized_chunk("c", 10), 0.4),
    ]
    state = select_evidence(scored, k_eff=2, budget=1000)
    assert state.chunk_ids == ["a", "b"]


def test_select_rescaled_utilities_preserve_ranking():
    rng = random.Random(9)
    scored = [(sized_chunk(f"c{i}", 50), rng.uniform(0, 1)) for i in range(8)]
    base = select_evidence(scored, k_eff=5, budget=220)
    for scale in (2.0, 0.5, 4.0):
        scaled = [(chunk, utility * scale) for chunk, utility in scored]
        assert select_evidence(scaled, k_eff=5, budget=220).chunk_ids == base.chunk_ids


def test_budget_invariant_small_fuzz():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(0, 12)
        scored = [
            (sized_chunk(f"c{i}", rng.randint(50, 2000)), rng.uniform(-0.5, 1.0)) for i in range(m)
        ]
        budget = rng.randint(500, 5000)
        k_eff = rng.randint(1, max(1, m))
        state = select_evidence(scored, k_eff, budget)
        assert state.used_tokens == sum(c.token_len for c in state.selected)
        assert state.used_tokens <= budget


def test_equal_length_selection_is_exhaustive_optimum():
    rng = random.Random(13)
    for _ in range(120):
        m = rng.randint(1, 8)
        length = rng.randint(40, 400)
        utilities = [round(rng.uniform(0, 1), 6) for _ in range(m)]
        scored = [(sized_chunk(f"c{i}", length), utilities[i]) for i in range(m)]
        budget = rng.randint(length, 4 * length)
        k_eff = rng.randint(1, m)
        greedy = select_evidence(scored, k_eff, budget)
        greedy_total = sum(u for c, u in scored if c.chunk_id in set(greedy.chunk_ids))

        top = sorted(scored, key=lambda p: (-p[1], p[0].chunk_id))[:k_eff]
        best = 0.0
        for size in range(len(top) + 1):
            for subset in itertools.combinations(top, size):
                if sum(c.token_len for c, _ in subset) <= budget:
                    best = max(best, sum(u for _, u in subset))
        assert greedy_total == pytest.approx(best, abs=1e-12)

        expected_size = min(k_eff, budget // length, m)
        assert len(greedy.selected) == expected_size


def test_selected_is_subset_of_k_eff_top_pool():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 10)
        scored = [(sized_chunk(f"c{i}", rng.randint(10, 300)), rng.uniform(0, 1)) for i in range(m)]
        k_eff = rng.randint(1, m)
        top_ids = {c.chunk_id for c, _ in sorted(scored, key=lambda p: (-p[1], p[0].chunk_id))[:k_eff]}
        state = select_evidence(scored, k_eff, budget=500)
        assert set(state.chunk_ids) <= top_ids


def _constant_rescore(values: dict[str, float]):
    def rescore(chunk, prior):
        return values[chunk.chunk_id]

    return rescore


def test_replace_update_fixed_point_with_no_new_candidates():
    chunks = [(sized_chunk(f"c{i}", 100), 0.9 - 0.2 * i) for i in range(3)]
    values = {c.chunk_id: u for c, u in chunks}
    start = select_evidence(chunks, k_eff=3, budget=1000)
    once = replace_update(start, [], _constant_rescore(values), buffer=2)
    twice = replace_update(once, [], _constant_rescore(values), buffer=2)
    assert once == twice
    assert once.chunk_ids == start.chunk_ids


def test_replace_update_swaps_in_better_candidate():
    current = select_evidence(
        [(sized_chunk("old-good", 400), 0.8), (sized_chunk("old-weak", 400), 0.2)],
        k_eff=2,
        budget=800,
    )
    values = {"old-good": 0.8, "old-weak": 0.1}
    newcomer = (sized_chunk("fresh", 400), 0.6)
    updated = replace_update(current, [newcomer], _constant_rescore(values), buffer=0)
    assert set(updated.chunk_ids) == {"fresh", "old-good"}
    assert updated.used_tokens <= 800


def test_replace_update_refuses_a_candidate_that_repeats_a_member():
    shared = sized_chunk("dup", 100)
    current = select_evidence([(shared, 0.5)], k_eff=1, budget=1000)
    new = [(shared, 0.7), (sized_chunk("other", 100), 0.4)]
    with pytest.raises(ValueError, match="'dup' appears twice"):
        replace_update(current, new, _constant_rescore({"dup": 0.3}), buffer=1)


def test_select_evidence_refuses_a_repeated_chunk():
    a, b = sized_chunk("a", 50), sized_chunk("b", 50)
    with pytest.raises(ValueError, match="'a' appears twice"):
        select_evidence([(a, 0.5), (a, 0.4), (b, 0.3)], 3, 500)
    # A repeat ranked beyond k_eff is refused too: the pool as a whole holds each id once.
    with pytest.raises(ValueError, match="'b' appears twice"):
        select_evidence([(a, 0.5), (b, 0.4), (b, 0.3)], 1, 500)


def test_evidence_state_refuses_a_repeated_chunk():
    a = sized_chunk("a", 50)
    with pytest.raises(ValueError, match="'a' appears twice"):
        EvidenceState(selected=[a, sized_chunk("b", 10), a], budget=500)


def _union_pool_update(current, new_candidates, rescore, buffer):
    """The re-selection as it was with a merged pool: each id once, at its higher utility, in first-seen order."""
    rescored = [(chunk, rescore(chunk, current.selected[:i])) for i, chunk in enumerate(current.selected)]
    best = {}
    for chunk, utility in rescored + list(new_candidates):
        if chunk.chunk_id not in best or utility > best[chunk.chunk_id][1]:
            best[chunk.chunk_id] = (chunk, utility)
    pool = list(best.values())
    if not pool:
        return EvidenceState(budget=current.budget)
    k_eff = effective_capacity(sorted((u for _, u in pool), reverse=True), buffer)
    return select_evidence(pool, k_eff, current.budget)


_UTILITY = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-2, 2))


@st.composite
def _disjoint_pools(draw):
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), unique=True, max_size=10))
    split = draw(st.integers(0, len(ids)))
    members = [sized_chunk(i, draw(st.integers(2, 100))) for i in ids[:split]]
    candidates = [(sized_chunk(i, draw(st.integers(2, 100))), draw(_UTILITY)) for i in ids[split:]]
    values = {c.chunk_id: draw(_UTILITY) for c in members}
    budget = sum(c.token_len for c in members) + draw(st.integers(1, 200))
    return EvidenceState(budget=budget, selected=members), candidates, values


@given(_disjoint_pools(), st.integers(0, 3))
def test_replace_update_over_disjoint_pools_equals_the_merged_pool_path(pools, buffer):
    current, candidates, values = pools
    calls = {}

    def rescore_into(log):
        def rescore(chunk, prior):
            log.append((chunk.chunk_id, prior))  # keeps the list it was given
            return values[chunk.chunk_id]

        return rescore

    updated = replace_update(current, candidates, rescore_into(calls.setdefault("new", [])), buffer=buffer)
    expected = _union_pool_update(current, candidates, rescore_into(calls.setdefault("old", [])), buffer)
    assert updated == expected  # the selection in order, its token count and k_eff
    assert [(cid, [c.chunk_id for c in prior]) for cid, prior in calls["new"]] == [
        (cid, [c.chunk_id for c in prior]) for cid, prior in calls["old"]
    ]


def test_replace_update_over_empty_evidence_is_the_first_selection():
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randint(0, 8)
        scored = [(sized_chunk(f"c{i}", rng.randint(10, 300)), rng.choice([0.1, 0.5, rng.random()])) for i in range(m)]
        buffer = rng.randint(0, 3)
        updated = replace_update(EvidenceState(budget=400), scored, _constant_rescore({}), buffer=buffer)
        if not scored:
            assert updated == EvidenceState(budget=400, k_eff=0)
            continue
        k_eff = effective_capacity(sorted((u for _, u in scored), reverse=True), buffer)
        assert updated == select_evidence(scored, k_eff, 400)
        assert updated.k_eff == k_eff


def test_replace_update_budget_holds():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 8)
        scored = [(sized_chunk(f"c{i}", rng.randint(50, 2000)), rng.uniform(0, 1)) for i in range(m)]
        budget = rng.randint(500, 5000)
        state = select_evidence(scored, rng.randint(1, m), budget)
        new = [(sized_chunk(f"n{i}", rng.randint(50, 2000)), rng.uniform(0, 1)) for i in range(3)]
        values = {c.chunk_id: rng.uniform(0, 1) for c, _ in scored}
        updated = replace_update(state, new, _constant_rescore(values), buffer=rng.randint(0, 3))
        assert updated.used_tokens <= budget


def test_replace_update_prefix_rescoring_order():
    # The rescore callable must see only members ranked before the chunk, in a list of
    # its own: a callback that keeps the lists it receives still holds each prefix.
    kept = []

    def rescore(chunk, prior):
        kept.append((chunk.chunk_id, prior))
        return 0.5

    chunks = [(sized_chunk(name, 10), 0.9 - 0.1 * i) for i, name in enumerate("abc")]
    state = select_evidence(chunks, k_eff=3, budget=100)
    replace_update(state, [], rescore, buffer=2)
    assert [(cid, [c.chunk_id for c in prior]) for cid, prior in kept] == [("a", []), ("b", ["a"]), ("c", ["a", "b"])]
    assert state.chunk_ids == ["a", "b", "c"]


def test_evidence_state_enforces_budget_invariant():
    with pytest.raises(ValueError, match="exceeds budget"):
        EvidenceState(selected=[sized_chunk("c", 200)], budget=100)
    # The count is the chunks' sum, computed by the state: no caller can pass another.
    assert EvidenceState(selected=[sized_chunk("a", 50), sized_chunk("b", 30)], budget=100).used_tokens == 80
    with pytest.raises(TypeError):
        EvidenceState(selected=[sized_chunk("c", 50)], budget=100, used_tokens=60)


def test_greedy_vs_exhaustive_gap_informational_report():
    # Mixed lengths can make greedy sub-optimal; report the observed gap.
    rng = random.Random(29)
    worst = 0.0
    total_gap = 0.0
    runs = 150
    for _ in range(runs):
        m = rng.randint(2, 8)
        scored = [(sized_chunk(f"c{i}", rng.randint(50, 900)), rng.uniform(0, 1)) for i in range(m)]
        budget = rng.randint(300, 2000)
        k_eff = rng.randint(1, m)
        greedy = select_evidence(scored, k_eff, budget)
        greedy_total = sum(u for c, u in scored if c.chunk_id in set(greedy.chunk_ids))
        top = sorted(scored, key=lambda p: (-p[1], p[0].chunk_id))[:k_eff]
        best = 0.0
        for size in range(len(top) + 1):
            for subset in itertools.combinations(top, size):
                if sum(c.token_len for c, _ in subset) <= budget:
                    best = max(best, sum(u for _, u in subset))
        gap = best - greedy_total
        worst = max(worst, gap)
        total_gap += gap
        assert greedy_total <= best + 1e-12
    print(f"\ngreedy-vs-exhaustive utility gap over {runs} mixed-length pools: "
          f"mean {total_gap / runs:.4f}, worst {worst:.4f}")
