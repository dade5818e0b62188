"""Seeded corpus perturbations for the stress-test namespaces.

Noise injection appends syntax-distorted copies of an example's own
passages and irrelevant passages sampled from other examples. Redundancy
injection appends rule-built paraphrastic variants of the gold supporting
passages. Both run through one loop, ``_inject``: for each example in
turn it seeds the example's own RNG by (seed, kind, example id), lets the
condition draw that example's injected chunks from it, and appends them
after every original chunk. So every original chunk, question, gold
answer, and gold title stays byte-identical, and the output is
deterministic for a given seed.

The injected count per example follows ``round(n_orig * rho / (1 - rho))``,
so rho is the injected fraction of the final pool (rho=0.5 doubles it).
Scramble, reorder and subset split sentences by ``oracle.split_sentences``:
a sentence end inside a fact ends no sentence, so no fact is cut apart.

A gold passage gets up to ``VARIANT_CAP`` redundancy variants, cycling
through reorder, synonym and subset. What draws nothing from the RNG is
derived once per gold, on first use, and shared by all of its variants
(``_Gold``): its sentence split and its synonym rewrite. So a gold's two
synonym variants (``-r1`` and ``-r4``) are the same text. Only reorder's
shuffle of a copy of the sentences and subset's fraction and sample draw
from the example's RNG, in variant order. A per-variant synonym draw would
choose among the per-gold candidate positions that ``_synonym`` finds.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from itertools import compress, count, repeat
from typing import Callable, Iterator, Sequence

from .corpus import (
    PROVENANCE_NOISE_CROSSQUERY,
    PROVENANCE_NOISE_SYNTAX,
    PROVENANCE_REDUNDANT,
    Chunk,
    Example,
)
from .errors import ValidationError
from .oracle import split_sentences

KIND_NOISE = "noise"
KIND_REDUNDANCY = "redundancy"

DISTORTIONS = ("scramble", "misspell", "truncate")
VARIANT_KINDS = ("reorder", "synonym", "subset")

MISSPELL_WORD_FRACTION = 0.10
TRUNCATE_RANGE = (0.40, 0.70)
SUBSET_RANGE = (0.50, 0.80)
VARIANT_CAP = 6  # redundancy variants per gold passage

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# Stripped from both ends of a word to find the core that the synonym table is keyed by.
_WORD_PUNCTUATION = ".,;:!?"


@dataclass(frozen=True)
class PerturbConfig:
    kind: str
    rho: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NOISE, KIND_REDUNDANCY):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")


def injected_count(n_orig: int, rho: float) -> int:
    """Chunks to inject so injected/(original+injected) is approximately rho."""
    return round(n_orig * rho / (1.0 - rho))


def _scramble(body: str, rng: random.Random) -> str:
    sentences = []
    for sentence in split_sentences(body):
        words = sentence.split()
        rng.shuffle(words)
        sentences.append(" ".join(words))
    return " ".join(sentences)


def _one_char_edit(word: str, rng: random.Random) -> str:
    if not word:
        return word
    op = rng.choice(("substitute", "delete", "insert", "swap"))
    pos = rng.randrange(len(word))
    if op == "substitute":
        return word[:pos] + rng.choice(_ALPHABET) + word[pos + 1 :]
    if op == "delete" and len(word) > 1:
        return word[:pos] + word[pos + 1 :]
    if op == "insert":
        return word[:pos] + rng.choice(_ALPHABET) + word[pos:]
    if op == "swap" and len(word) > 1:
        pos = min(pos, len(word) - 2)
        return word[:pos] + word[pos + 1] + word[pos] + word[pos + 2 :]
    return word + rng.choice(_ALPHABET)


def _misspell(body: str, rng: random.Random) -> str:
    words = body.split()
    if not words:
        return body
    n_corrupt = max(1, math.ceil(MISSPELL_WORD_FRACTION * len(words)))
    for i in sorted(rng.sample(range(len(words)), min(n_corrupt, len(words)))):
        words[i] = _one_char_edit(words[i], rng)
    return " ".join(words)


def _truncate(body: str, rng: random.Random) -> str:
    words = body.split()
    if not words:
        return body
    fraction = rng.uniform(*TRUNCATE_RANGE)
    keep = max(1, round(fraction * len(words)))
    return " ".join(words[:keep])


_DISTORT_OPS = {"scramble": _scramble, "misspell": _misspell, "truncate": _truncate}


def load_synonym_table() -> dict[str, str]:
    """The fixed word-substitution table used by redundancy variants."""
    raw = resources.files("adagate").joinpath("data/synonyms.json").read_text(encoding="utf-8")
    return json.loads(raw)


_synonym_table = functools.cache(load_synonym_table)


class _Gold:
    """A gold passage's derivations that draw nothing from an RNG, each made on first use.

    Every variant of the gold reads them, so however many variants it gets,
    its sentences are split once and its synonym rewrite is made once.
    """

    def __init__(self, body: str):
        self.body = body

    @functools.cached_property
    def sentences(self) -> list[str]:
        return split_sentences(self.body)

    @functools.cached_property
    def synonym(self) -> str:
        return _synonym(self.body)


def _reorder(gold: _Gold, rng: random.Random) -> str:
    sentences = gold.sentences.copy()
    rng.shuffle(sentences)
    return " ".join(sentences)


def _subset(gold: _Gold, rng: random.Random) -> str:
    sentences = gold.sentences
    if len(sentences) <= 1:
        return gold.body
    fraction = rng.uniform(*SUBSET_RANGE)
    keep = max(1, round(fraction * len(sentences)))
    indices = sorted(rng.sample(range(len(sentences)), keep))
    return " ".join(sentences[i] for i in indices)


def _synonym(body: str) -> str:
    """``body``'s words joined by single spaces, each word whose core is in the table rewritten.

    A word's core is the word stripped of ``_WORD_PUNCTUATION``, and the core
    lowercased is looked up; a hit keeps the punctuation around its core.
    The few candidate positions are found by C-level ``map`` and
    ``compress`` over the words, so only they take the Python branch.
    """
    table = _synonym_table()
    words = body.split()
    cores = map(str.lower, map(str.strip, words, repeat(_WORD_PUNCTUATION)))
    positions = list(compress(count(), map(table.__contains__, cores)))
    for at in positions:
        word = words[at]
        core = word.strip(_WORD_PUNCTUATION)
        start = word.find(core)
        words[at] = word[:start] + table[core.lower()] + word[start + len(core) :]
    return " ".join(words)


_VARIANT_OPS: dict[str, Callable[[_Gold, random.Random], str]] = {
    "reorder": _reorder,
    "synonym": lambda gold, _rng: gold.synonym,
    "subset": _subset,
}

_Injection = tuple[str, Chunk, str, str]


def _inject(
    examples: Sequence[Example],
    chunks: Sequence[Chunk],
    config: PerturbConfig,
    variants: Callable[[Example, list[int], random.Random], Iterator[_Injection]],
) -> list[Chunk]:
    """``chunks`` followed by the chunks that ``variants`` yields for each example, in order.

    ``variants`` gets the example, the positions of its chunks in ``chunks``
    and the example's own RNG, seeded by (seed, kind, example id). It yields
    (chunk id, source chunk, body, provenance) for each chunk to inject.
    """
    positions: dict[str, list[int]] = {}
    for at, chunk in enumerate(chunks):
        positions.setdefault(chunk.source_example, []).append(at)
    injected: list[Chunk] = []
    for example in examples:
        rng = random.Random(f"{config.seed}:{config.kind}:{example.id}")
        for chunk_id, source, body, provenance in variants(example, positions.get(example.id, []), rng):
            injected.append(Chunk(chunk_id, source.title, body, example.id, provenance))
    return list(chunks) + injected


def inject_noise(
    examples: Sequence[Example],
    chunks: Sequence[Chunk],
    config: PerturbConfig,
) -> list[Chunk]:
    """Append syntax-distorted copies and cross-query passages per example pool."""
    if config.kind != KIND_NOISE:
        raise ValueError("config.kind must be 'noise'")

    def variants(example: Example, own_positions: list[int], rng: random.Random) -> Iterator[_Injection]:
        n_inj = injected_count(len(own_positions), config.rho)
        n_foreign = len(chunks) - len(own_positions)
        if n_inj and not n_foreign:
            raise ValidationError(
                "noise injection needs at least two examples to supply cross-query passages"
            )
        n_syntax = n_inj - n_inj // 2
        for j in range(n_syntax):
            source = chunks[own_positions[j % len(own_positions)]]
            op = rng.choices(DISTORTIONS)[0]  # not choice, which reads the stream differently
            body = _DISTORT_OPS[op](source.body, rng)
            yield f"{source.chunk_id}-n{j}", source, body, PROVENANCE_NOISE_SYNTAX
        for j in range(n_inj - n_syntax):
            # The draw of rng.choice over the other examples' chunks, in order,
            # mapped to its position in ``chunks`` past this example's own.
            at = rng.choice(range(n_foreign))
            for own_at in own_positions:
                if own_at > at:
                    break
                at += 1
            source = chunks[at]
            yield f"{example.id}-x{j}", source, source.body, PROVENANCE_NOISE_CROSSQUERY

    return _inject(examples, chunks, config, variants)


def inject_redundancy(
    examples: Sequence[Example],
    chunks: Sequence[Chunk],
    config: PerturbConfig,
) -> list[Chunk]:
    """Append paraphrastic variants of gold supporting chunks, capped per gold."""
    if config.kind != KIND_REDUNDANCY:
        raise ValueError("config.kind must be 'redundancy'")

    def variants(example: Example, own_positions: list[int], rng: random.Random) -> Iterator[_Injection]:
        own = [chunks[at] for at in own_positions]
        golds = [c for c in own if c.title in example.gold_titles]
        n_vars = min(injected_count(len(own), config.rho), len(golds) * VARIANT_CAP)
        derived = [_Gold(gold.body) for gold in golds]
        # Golds are taken round-robin, so variant j is number j // len(golds) of its gold.
        for j in range(n_vars):
            g_index, at = divmod(j, len(golds))
            body = _VARIANT_OPS[VARIANT_KINDS[g_index % len(VARIANT_KINDS)]](derived[at], rng)
            yield f"{golds[at].chunk_id}-r{g_index}", golds[at], body, PROVENANCE_REDUNDANT

    return _inject(examples, chunks, config, variants)
