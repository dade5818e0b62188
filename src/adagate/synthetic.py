"""Generator for self-contained two-hop QA worlds in the corpus file schema.

Each generated question has two gold paragraphs, written by one loop over
their (title, entity, relation, value) facts. The first, the hop, names the
question's subject and links it to a bridge entity; the second carries the
bridge entity's target attribute, whose value is the gold answer. Bridge
paragraphs share no vocabulary with their question, so retrieval can reach
them only through a micro-query built from the bridge entity once the first
hop is in the ledger. Distractor paragraphs are filler with no extractable
facts; they come first in every context so that tie-broken retrieval
fills with inert passages. Every paragraph is padded to an exact token
length, keeping budget arithmetic in experiments predictable. The seed
changes only the filler words, numbered from ``seed * 1_000_003``; questions
and facts are the same at every seed, and a 2,000-question world (1.1
million filler words) shares filler sentences with the next seed's.

Facts and question slots use the markup conventions of the rule-based
oracle (``ENT[..] REL[..] VAL[..]`` and ``SLOT[entity|relation]`` with
``*N`` back-references).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import Example, count_tokens, write_json_lines

DISTRACTORS = 8  # filler paragraphs per question
CHUNK_TOKENS = 60  # exact token length of every paragraph
FACT_REPEATS = 3  # plain-text copies of each gold fact


@dataclass(frozen=True)
class WorldSpec:
    n_questions: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_questions < 1:
            raise ValueError("n_questions must be >= 1")


def _filler_sentences(words_needed: int, fresh: Iterator[int]) -> list[str]:
    sentences: list[str] = []
    remaining = words_needed
    while remaining > 0:
        size = min(6, remaining)
        words = [f"w{next(fresh)}" for _ in range(size)]
        sentences.append(" ".join(words) + ".")
        remaining -= size
    return sentences


def _pad_paragraph(title: str, sentences: list[str], target_tokens: int, fresh: Iterator[int]) -> list[str]:
    base = count_tokens(f"{title}\n{' '.join(sentences)}")
    if base > target_tokens:
        raise ValueError(f"paragraph {title!r} already has {base} tokens, target {target_tokens}")
    return sentences + _filler_sentences(target_tokens - base, fresh)


def generate_world(spec: WorldSpec) -> list[Example]:
    fresh = count(spec.seed * 1_000_003)
    examples: list[Example] = []
    for i in range(spec.n_questions):
        subj, mid, obj = f"subj{i:03d}", f"mid{i:03d}", f"obj{i:03d}"
        rel_a, rel_b = f"rel{i:03d}a", f"rel{i:03d}b"
        # (title, entity, relation, value) of each gold paragraph: the hop, then the bridge.
        golds = ((f"{subj} profile", subj, rel_a, mid), (f"{mid} record", mid, rel_b, obj))

        paragraphs: list[tuple[str, tuple[str, ...]]] = []
        for _ in range(DISTRACTORS):
            junk_title = f"entry w{next(fresh)}"
            junk_sentences = _pad_paragraph(junk_title, [], CHUNK_TOKENS, fresh)
            paragraphs.append((junk_title, tuple(junk_sentences)))
        for title, entity, relation, value in golds:
            sentences = [f"the {entity} {relation} {value}."] * FACT_REPEATS
            sentences.append(f"ENT[{entity}] REL[{relation}] VAL[{value}].")
            paragraphs.append((title, tuple(_pad_paragraph(title, sentences, CHUNK_TOKENS, fresh))))

        question = (
            f"what do we learn about {subj} via SLOT[{subj}|{rel_a}] "
            f"and then SLOT[*1|{rel_b}] regarding {subj}"
        )
        examples.append(
            Example(
                id=f"q{i:03d}",
                question=question,
                gold_answer=obj,
                gold_titles=frozenset(title for title, *_ in golds),
                paragraphs=tuple(paragraphs),
            )
        )
    return examples


def example_to_record(example: Example) -> dict:
    return {
        "_id": example.id,
        "question": example.question,
        "answer": example.gold_answer,
        "supporting_facts": [[title, 0] for title in sorted(example.gold_titles)],
        "context": [[title, list(sentences)] for title, sentences in example.paragraphs],
    }


def write_examples(path: str | Path, examples: Iterable[Example]) -> None:
    write_json_lines(path, map(example_to_record, examples))
