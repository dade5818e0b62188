"""Seeded corpus perturbations for the stress-test namespaces.

Noise injection appends syntax-distorted copies of an example's own
passages and irrelevant passages sampled from other examples. Redundancy
injection appends rule-built paraphrastic variants of the gold supporting
passages. Both leave every original chunk, question, gold answer, and gold
title byte-identical, and both are deterministic for a given seed: each
example draws from its own RNG seeded by (seed, kind, example id).

The injected count per example follows ``round(n_orig * rho / (1 - rho))``,
so rho is the injected fraction of the final pool (rho=0.5 doubles it).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .corpus import (
    PROVENANCE_NOISE_CROSSQUERY,
    PROVENANCE_NOISE_SYNTAX,
    PROVENANCE_REDUNDANT,
    Chunk,
    Example,
    make_chunk,
)
from .errors import ValidationError

KIND_NOISE = "noise"
KIND_REDUNDANCY = "redundancy"

DISTORTIONS = ("scramble", "misspell", "truncate")
# Seeded noise namespaces depend on this draw: ``random.choices`` with these
# weights; ``random.choice`` would consume the stream differently.
DISTORTION_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)
VARIANT_KINDS = ("reorder", "synonym", "subset")

MISSPELL_WORD_FRACTION = 0.10
TRUNCATE_RANGE = (0.40, 0.70)
SUBSET_RANGE = (0.50, 0.80)
DEFAULT_VARIANT_CAP = 6

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class PerturbConfig:
    kind: str
    rho: float
    seed: int = 0
    variant_cap: int = DEFAULT_VARIANT_CAP

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NOISE, KIND_REDUNDANCY):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.variant_cap < 1:
            raise ValueError("variant_cap must be >= 1")


def injected_count(n_orig: int, rho: float) -> int:
    """Chunks to inject so injected/(original+injected) is approximately rho."""
    if rho == 0.0:
        return 0
    return round(n_orig * rho / (1.0 - rho))


def _split_sentences(body: str) -> list[str]:
    return [s for s in _SENTENCE_BOUNDARY.split(body) if s.strip()]


def _scramble(body: str, rng: random.Random) -> str:
    sentences = []
    for sentence in _split_sentences(body):
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


def _reorder(body: str, rng: random.Random) -> str:
    sentences = _split_sentences(body)
    rng.shuffle(sentences)
    return " ".join(sentences)


def _subset(body: str, rng: random.Random) -> str:
    sentences = _split_sentences(body)
    if len(sentences) <= 1:
        return body
    fraction = rng.uniform(*SUBSET_RANGE)
    keep = max(1, round(fraction * len(sentences)))
    indices = sorted(rng.sample(range(len(sentences)), keep))
    return " ".join(sentences[i] for i in indices)


def _synonym(body: str, table: dict[str, str]) -> str:
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


def _positions_by_example(chunks: Sequence[Chunk]) -> dict[str, list[int]]:
    """The ascending positions in ``chunks`` of each source example's chunks."""
    positions: dict[str, list[int]] = {}
    for at, chunk in enumerate(chunks):
        positions.setdefault(chunk.source_example, []).append(at)
    return positions


def inject_noise(
    examples: Sequence[Example],
    chunks: Sequence[Chunk],
    config: PerturbConfig,
) -> list[Chunk]:
    """Append syntax-distorted copies and cross-query passages per example pool."""
    if config.kind != KIND_NOISE:
        raise ValueError("config.kind must be 'noise'")
    positions = _positions_by_example(chunks)
    injected: list[Chunk] = []
    for example in examples:
        own_positions = positions.get(example.id, [])
        own = [chunks[at] for at in own_positions]
        n_inj = injected_count(len(own), config.rho)
        if n_inj == 0:
            continue
        n_foreign = len(chunks) - len(own)
        if not n_foreign:
            raise ValidationError(
                "noise injection needs at least two examples to supply cross-query passages"
            )
        rng = random.Random(f"{config.seed}:{KIND_NOISE}:{example.id}")
        n_syntax = n_inj - n_inj // 2
        for j in range(n_syntax):
            source = own[j % len(own)]
            op = rng.choices(DISTORTIONS, weights=DISTORTION_WEIGHTS)[0]
            body = _DISTORT_OPS[op](source.body, rng)
            injected.append(
                make_chunk(
                    chunk_id=f"{source.chunk_id}-n{j}",
                    title=source.title,
                    body=body,
                    source_example=example.id,
                    provenance=PROVENANCE_NOISE_SYNTAX,
                )
            )
        for j in range(n_inj - n_syntax):
            # The draw of rng.choice over the other examples' chunks, in order,
            # mapped to its position in ``chunks`` past this example's own.
            at = rng.choice(range(n_foreign))
            for own_at in own_positions:
                if own_at > at:
                    break
                at += 1
            source = chunks[at]
            injected.append(
                make_chunk(
                    chunk_id=f"{example.id}-x{j}",
                    title=source.title,
                    body=source.body,
                    source_example=example.id,
                    provenance=PROVENANCE_NOISE_CROSSQUERY,
                )
            )
    return list(chunks) + injected


def inject_redundancy(
    examples: Sequence[Example],
    chunks: Sequence[Chunk],
    config: PerturbConfig,
) -> list[Chunk]:
    """Append paraphrastic variants of gold supporting chunks, capped per gold."""
    if config.kind != KIND_REDUNDANCY:
        raise ValueError("config.kind must be 'redundancy'")
    table = load_synonym_table()
    positions = _positions_by_example(chunks)
    injected: list[Chunk] = []
    for example in examples:
        own = [chunks[at] for at in positions.get(example.id, [])]
        golds = [c for c in own if c.title in example.gold_titles]
        if not golds:
            continue
        target = injected_count(len(own), config.rho)
        n_vars = min(target, len(golds) * config.variant_cap)
        rng = random.Random(f"{config.seed}:{KIND_REDUNDANCY}:{example.id}")
        per_gold: dict[str, int] = {g.chunk_id: 0 for g in golds}
        for j in range(n_vars):
            gold = golds[j % len(golds)]
            g_index = per_gold[gold.chunk_id]
            per_gold[gold.chunk_id] += 1
            kind = VARIANT_KINDS[g_index % len(VARIANT_KINDS)]
            if kind == "reorder":
                body = _reorder(gold.body, rng)
            elif kind == "synonym":
                body = _synonym(gold.body, table)
            else:
                body = _subset(gold.body, rng)
            injected.append(
                make_chunk(
                    chunk_id=f"{gold.chunk_id}-r{g_index}",
                    title=gold.title,
                    body=body,
                    source_example=example.id,
                    provenance=PROVENANCE_REDUNDANT,
                )
            )
    return list(chunks) + injected
