from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adagate.corpus import PROVENANCE_REDUNDANT, Chunk, chunk_corpus, chunk_to_record, count_tokens
from adagate.errors import ValidationError
from adagate.index import HashingEmbedder, cosine
from adagate.perturb import (
    _DISTORT_OPS,
    _VARIANT_OPS,
    DISTORTIONS,
    SUBSET_RANGE,
    VARIANT_CAP,
    VARIANT_KINDS,
    PerturbConfig,
    _Gold,
    _synonym,
    injected_count,
    inject_noise,
    inject_redundancy,
    load_synonym_table,
)
from adagate.oracle import FACT_PATTERN, split_sentences
from adagate.synthetic import WorldSpec, generate_world


def _serialize(chunks) -> str:
    return "\n".join(json.dumps(chunk_to_record(c)) for c in chunks)


def _pools(chunks) -> dict[str, list]:
    pools: dict[str, list] = {}
    for chunk in chunks:
        pools.setdefault(chunk.source_example, []).append(chunk)
    return pools


def test_noise_doubles_each_pool_at_half_ratio(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="noise", rho=0.5, seed=3)
    out = inject_noise(fixture_examples, fixture_chunks, config)
    pools = _pools(out)
    for example in fixture_examples:
        assert len(pools[example.id]) == 20  # 10 originals + 10 injected
    assert len(out) == 40


def test_noise_rho_zero_is_identity(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="noise", rho=0.0, seed=3)
    out = inject_noise(fixture_examples, fixture_chunks, config)
    assert _serialize(out) == _serialize(fixture_chunks)


def test_noise_seed_determinism(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="noise", rho=0.5, seed=3)
    first = inject_noise(fixture_examples, fixture_chunks, config)
    second = inject_noise(fixture_examples, fixture_chunks, config)
    assert _serialize(first) == _serialize(second)
    other = inject_noise(
        fixture_examples, fixture_chunks, PerturbConfig(kind="noise", rho=0.5, seed=4)
    )
    assert _serialize(other) != _serialize(first)


def test_noise_preserves_originals_byte_identical(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="noise", rho=0.5, seed=3)
    out = inject_noise(fixture_examples, fixture_chunks, config)
    assert _serialize(out[: len(fixture_chunks)]) == _serialize(fixture_chunks)
    gold_titles = set().union(*(e.gold_titles for e in fixture_examples))
    originals = {c.chunk_id: c for c in fixture_chunks}
    for chunk in out[: len(fixture_chunks)]:
        if chunk.title in gold_titles:
            assert chunk == originals[chunk.chunk_id]


def test_noise_injected_provenance_and_split(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="noise", rho=0.5, seed=3)
    out = inject_noise(fixture_examples, fixture_chunks, config)
    injected = out[len(fixture_chunks) :]
    assert all(c.provenance in ("noise_syntax", "noise_crossquery") for c in injected)
    counts = Counter(c.provenance for c in injected)
    assert counts["noise_syntax"] == 10  # ceil(10/2) per example
    assert counts["noise_crossquery"] == 10
    for chunk in injected:
        assert count_tokens(chunk.text) == chunk.token_len


def test_noise_single_example_corpus_rejected(fixture_examples, fixture_chunks):
    solo = fixture_examples[:1]
    solo_chunks = [c for c in fixture_chunks if c.source_example == solo[0].id]
    with pytest.raises(ValidationError):
        inject_noise(solo, solo_chunks, PerturbConfig(kind="noise", rho=0.5, seed=3))
    # rho=0 needs no cross-query passages, so a single example is fine.
    out = inject_noise(solo, solo_chunks, PerturbConfig(kind="noise", rho=0.0, seed=3))
    assert len(out) == len(solo_chunks)


def test_injected_count_arithmetic():
    assert injected_count(10, 0.5) == 10
    assert injected_count(10, 0.0) == 0
    assert injected_count(10, 0.25) == round(10 * 0.25 / 0.75)
    for n in (1, 7, 10, 24):
        for rho in (0.0, 0.1, 0.3, 0.5, 0.75):
            assert injected_count(n, rho) == round(n * rho / (1 - rho))


def test_noise_output_size_follows_formula(fixture_examples, fixture_chunks):
    for rho in (0.2, 1 / 3, 0.5):
        config = PerturbConfig(kind="noise", rho=rho, seed=5)
        out = inject_noise(fixture_examples, fixture_chunks, config)
        per_example = injected_count(10, rho)
        assert len(out) == len(fixture_chunks) + 2 * per_example


def test_perturb_config_validation():
    with pytest.raises(ValueError):
        PerturbConfig(kind="weird", rho=0.5)
    with pytest.raises(ValueError):
        PerturbConfig(kind="noise", rho=1.0)


def test_each_injection_refuses_the_other_kind(fixture_examples, fixture_chunks):
    with pytest.raises(ValueError) as exc:
        inject_noise(fixture_examples, fixture_chunks, PerturbConfig(kind="redundancy", rho=0.5))
    assert str(exc.value) == "config.kind must be 'noise'"
    with pytest.raises(ValueError) as exc:
        inject_redundancy(fixture_examples, fixture_chunks, PerturbConfig(kind="noise", rho=0.5))
    assert str(exc.value) == "config.kind must be 'redundancy'"


def test_redundancy_variant_count_and_pool(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="redundancy", rho=0.5, seed=7)
    out = inject_redundancy(fixture_examples, fixture_chunks, config)
    pools = _pools(out)
    for example in fixture_examples:
        assert len(pools[example.id]) == 20  # 10 + round(10 * 0.5 / 0.5) = 20
    variants = [c for c in out if c.provenance == "redundant_variant"]
    assert len(variants) == 20
    gold_titles = set().union(*(e.gold_titles for e in fixture_examples))
    assert all(v.title in gold_titles for v in variants)


def test_redundancy_respects_per_gold_cap(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="redundancy", rho=0.9, seed=7)
    out = inject_redundancy(fixture_examples, fixture_chunks, config)
    variants = [c for c in out if c.provenance == "redundant_variant"]
    # rho 0.9 asks for 90 per example; 2 golds per example, VARIANT_CAP 6 each: 12 per example.
    assert VARIANT_CAP == 6
    assert len(variants) == 2 * 2 * VARIANT_CAP


def test_redundancy_rho_zero_is_identity(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="redundancy", rho=0.0, seed=7)
    out = inject_redundancy(fixture_examples, fixture_chunks, config)
    assert _serialize(out) == _serialize(fixture_chunks)


def test_redundancy_gold_originals_unchanged_and_deterministic(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="redundancy", rho=0.5, seed=7)
    first = inject_redundancy(fixture_examples, fixture_chunks, config)
    second = inject_redundancy(fixture_examples, fixture_chunks, config)
    assert _serialize(first) == _serialize(second)
    assert _serialize(first[: len(fixture_chunks)]) == _serialize(fixture_chunks)


def test_reorder_variant_is_bag_identical_with_cosine_one(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="redundancy", rho=0.5, seed=7)
    out = inject_redundancy(fixture_examples, fixture_chunks, config)
    originals = {c.chunk_id: c for c in fixture_chunks}
    embedder = HashingEmbedder(dim=2**20)
    reorders = [c for c in out if c.chunk_id.endswith("-r0")]  # kind cycle starts with reorder
    assert reorders
    for variant in reorders:
        source = originals[variant.chunk_id.rsplit("-r", 1)[0]]
        assert Counter(variant.body.split()) == Counter(source.body.split())
        sim = cosine(embedder.embed_one(variant.text), embedder.embed_one(source.text))
        assert sim == pytest.approx(1.0, abs=1e-9)


def test_synonym_variant_substitutes_from_shipped_table(fixture_examples, fixture_chunks):
    table = load_synonym_table()
    assert table["the"] == "that"
    config = PerturbConfig(kind="redundancy", rho=0.5, seed=7)
    out = inject_redundancy(fixture_examples, fixture_chunks, config)
    synonyms = [c for c in out if c.chunk_id.endswith("-r1")]  # second kind in the cycle
    assert synonyms
    for variant in synonyms:
        assert "the" not in variant.body.split()
        assert "that" in variant.body.split()


def test_subset_variant_keeps_sentence_subset(fixture_examples, fixture_chunks):
    config = PerturbConfig(kind="redundancy", rho=0.5, seed=7)
    out = inject_redundancy(fixture_examples, fixture_chunks, config)
    originals = {c.chunk_id: c for c in fixture_chunks}
    subsets = [c for c in out if c.chunk_id.endswith("-r2")]
    assert subsets

    def sentences(body: str) -> set[str]:
        return {s.strip() for s in body.split(".") if s.strip()}

    for variant in subsets:
        source = originals[variant.chunk_id.rsplit("-r", 1)[0]]
        assert len(sentences(variant.body)) < len(sentences(source.body))
        assert sentences(variant.body) <= sentences(source.body)


@pytest.mark.parametrize(
    "body",
    [
        "The town ENT[St. Ives] REL[county] VAL[Cornwall]. It is by the sea. Many visit.",
        # "? [" inside a fact: a sentence end there would let a reorder glue the cut "ENT[" to the next fact.
        "ENT[is it? [old] REL[asked] VAL[yes. no]. The town ENT[St. Ives] REL[county] VAL[Cornwall]. "
        "It is by the sea. ENT[c] REL[r] VAL[v]! Many visit.",
    ],
)
def test_reorder_and_subset_variants_hold_only_the_gold_facts(body):
    # A sentence end inside a fact ends no sentence, as for the oracle, so every fact moves whole.
    facts = FACT_PATTERN.findall(body)
    for seed in range(10):
        reordered = _VARIANT_OPS["reorder"](_Gold(body), random.Random(seed))
        subset = _VARIANT_OPS["subset"](_Gold(body), random.Random(seed))
        for variant in (reordered, subset):
            found = FACT_PATTERN.findall(variant)
            assert set(found) <= set(facts)
            assert variant.count("ENT[") == variant.count("VAL[") == len(found)  # no fact cut apart
        assert sorted(FACT_PATTERN.findall(reordered)) == sorted(facts)


def test_gold_titles_of_examples_never_touched(fixture_examples, fixture_chunks):
    before = [sorted(e.gold_titles) for e in fixture_examples]
    inject_noise(fixture_examples, fixture_chunks, PerturbConfig(kind="noise", rho=0.5, seed=3))
    inject_redundancy(
        fixture_examples, fixture_chunks, PerturbConfig(kind="redundancy", rho=0.5, seed=3)
    )
    assert [sorted(e.gold_titles) for e in fixture_examples] == before


def test_noise_crossquery_draws_over_interleaved_chunks():
    world = generate_world(WorldSpec(n_questions=5, seed=2))
    chunks = chunk_corpus(world)
    random.Random(0).shuffle(chunks)  # each example's chunks are scattered among the others'
    config = PerturbConfig(kind="noise", rho=0.5, seed=3)
    out = inject_noise(world, chunks, config)
    injected = {c.chunk_id: c for c in out[len(chunks) :]}
    for example in world:
        own = [c for c in chunks if c.source_example == example.id]
        foreign = [c for c in chunks if c.source_example != example.id]
        n_inj = injected_count(len(own), config.rho)
        n_syntax = n_inj - n_inj // 2
        rng = random.Random(f"{config.seed}:noise:{example.id}")
        for j in range(n_syntax):
            # The weighted draw: the unweighted one in inject_noise must draw the same index.
            op = rng.choices(DISTORTIONS, weights=(1 / 3, 1 / 3, 1 / 3))[0]
            source = own[j % len(own)]
            assert injected[f"{source.chunk_id}-n{j}"].body == _DISTORT_OPS[op](source.body, rng)
        for j in range(n_inj - n_syntax):
            expected = rng.choice(foreign)
            got = injected[f"{example.id}-x{j}"]
            assert (got.title, got.body) == (expected.title, expected.body)


def test_redundancy_skips_an_example_without_gold_chunks():
    world = generate_world(WorldSpec(n_questions=4, seed=2))
    chunks = chunk_corpus(world)
    config = PerturbConfig(kind="redundancy", rho=0.5, seed=3)
    bare = world[1]
    kept = [c for c in chunks if not (c.source_example == bare.id and c.title in bare.gold_titles)]
    full = inject_redundancy(world, chunks, config)[len(chunks) :]
    partial = inject_redundancy(world, kept, config)[len(kept) :]
    assert partial
    assert not [c for c in partial if c.source_example == bare.id]
    assert _serialize(partial) == _serialize([c for c in full if c.source_example != bare.id])


# ---------------------------------------------------------------- reference derivations
# Each variant derived from its gold's body on its own, one word at a time: the
# loop that per-gold derivation and the C-level synonym scan must reproduce.


def _reference_synonym(body: str) -> str:
    table = load_synonym_table()
    out = []
    for word in body.split():
        core = word.strip(".,;:!?")
        replacement = table.get(core.lower())
        if replacement is not None:
            prefix_len = word.find(core) if core else 0
            prefix = word[:prefix_len] if prefix_len > 0 else ""
            suffix = word[prefix_len + len(core) :] if core else ""
            out.append(prefix + replacement + suffix)
        else:
            out.append(word)
    return " ".join(out)


def _reference_variant(kind: str, body: str, rng: random.Random) -> str:
    if kind == "synonym":
        return _reference_synonym(body)
    sentences = split_sentences(body)
    if kind == "reorder":
        rng.shuffle(sentences)
        return " ".join(sentences)
    if len(sentences) <= 1:
        return body
    keep = max(1, round(rng.uniform(*SUBSET_RANGE) * len(sentences)))
    return " ".join(sentences[i] for i in sorted(rng.sample(range(len(sentences)), keep)))


def _reference_redundancy(examples, chunks, config):
    injected = []
    for example in examples:
        rng = random.Random(f"{config.seed}:redundancy:{example.id}")
        own = [c for c in chunks if c.source_example == example.id]
        golds = [c for c in own if c.title in example.gold_titles]
        for j in range(min(injected_count(len(own), config.rho), len(golds) * VARIANT_CAP)):
            gold, g_index = golds[j % len(golds)], j // len(golds)
            body = _reference_variant(VARIANT_KINDS[g_index % len(VARIANT_KINDS)], gold.body, rng)
            chunk_id = f"{gold.chunk_id}-r{g_index}"
            injected.append(Chunk(chunk_id, gold.title, body, example.id, PROVENANCE_REDUNDANT))
    return list(chunks) + injected


@pytest.mark.parametrize("rho", [0.5, 0.9])  # at 0.9 the cap binds: 6 variants, 4 sentence splits per gold
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_redundancy_equals_per_variant_derivation(seed, rho):
    world = generate_world(WorldSpec(n_questions=40, seed=seed))
    chunks = chunk_corpus(world)
    config = PerturbConfig(kind="redundancy", rho=rho, seed=seed)
    out = inject_redundancy(world, chunks, config)
    assert len(out) - len(chunks) == (10 if rho == 0.5 else 2 * VARIANT_CAP) * len(world)
    assert out == _reference_redundancy(world, chunks, config)


_TABLE_WORDS = sorted(load_synonym_table())
_CASED_TABLE_WORD = st.sampled_from(_TABLE_WORDS).flatmap(
    lambda w: st.lists(st.booleans(), min_size=len(w), max_size=len(w)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(w, upper))
    )
)
_EDGE = st.text(".,;:!?\"'()[]-", max_size=3)
_WORD = st.one_of(
    st.builds(lambda pre, core, suf: pre + core + suf, _EDGE, _CASED_TABLE_WORD, _EDGE),
    st.text(".,;:!?", min_size=1, max_size=4),  # punctuation only: the core is empty
    # Case mappings that reach or miss the ASCII keys: the Kelvin sign lowercases to "k",
    # "İ" to two code points, and "ſ" is already lowercase.
    st.sampled_from(["\u212anown", "\u0130s", "\u017fmall", "THE", "Most,", "..a..", "its!?"]),
    st.text(max_size=8),
)
_SPACE = st.sampled_from([" ", "  ", "\t", "\n", " \r\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(st.lists(st.tuples(_SPACE, _WORD)).map(lambda parts: "".join(map("".join, parts))), st.text()))
@example(body="")
@example(body="  \t\n ")
@example(body="The \u212anown town, and its MOST. \u0130s \u017fmall! ... ;;")
def test_synonym_equals_the_per_word_loop(body):
    assert _synonym(body) == _reference_synonym(body)
