"""Corpus loading, chunking, and token accounting.

Input files follow the HotpotQA distractor schema, one JSON record per line:
``_id``, ``question``, ``answer``, ``supporting_facts`` (list of
``[title, sentence_idx]`` pairs) and ``context`` (list of
``[title, [sentences]]`` pairs). Each context paragraph becomes one indexed
chunk whose text is the title heading followed by the paragraph body.

This module is also the one home of the JSON-lines format that every file
of the pipeline uses (examples, chunks, snapshots, results): ``json_lines``
is its one reader and ``write_json_lines`` its one writer. Every output is
written through ``write_atomic``, so a write that fails midway leaves the
previous file as it was.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError, ValidationError

PROVENANCE_ORIGINAL = "original"
PROVENANCE_NOISE_SYNTAX = "noise_syntax"
PROVENANCE_NOISE_CROSSQUERY = "noise_crossquery"
PROVENANCE_REDUNDANT = "redundant_variant"
PROVENANCES = (
    PROVENANCE_ORIGINAL,
    PROVENANCE_NOISE_SYNTAX,
    PROVENANCE_NOISE_CROSSQUERY,
    PROVENANCE_REDUNDANT,
)


def count_tokens(text: str) -> int:
    """Number of whitespace-delimited tokens in ``text``.

    Deterministic and additive over concatenation with a space:
    ``count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)`` for
    non-empty ``a``, ``b``.
    """
    return len(text.split())


@dataclass(frozen=True)
class Example:
    """One multi-hop question with its gold supervision and context paragraphs.

    Checked when built: a blank question, no gold titles or a gold title
    absent from the paragraphs raises ValidationError.
    """

    id: str
    question: str
    gold_answer: str
    gold_titles: frozenset[str]
    paragraphs: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValidationError(f"example {self.id!r}: empty question")
        if not self.gold_titles:
            raise ValidationError(f"example {self.id!r}: no gold titles")
        titles = {title for title, _ in self.paragraphs}
        missing = sorted(self.gold_titles - titles)
        if missing:
            raise ValidationError(
                f"example {self.id!r}: gold titles not found in context: {', '.join(missing)}"
            )


@dataclass(frozen=True)
class Chunk:
    """One indexed passage: a title heading plus paragraph body.

    ``token_len``, the cost the evidence budget is enforced on, is computed
    here from ``text``; no caller passes it.
    """

    chunk_id: str
    title: str
    body: str
    # The factory gives the field its declared place in vars(), and so in chunk records.
    token_len: int = field(init=False, default_factory=int)
    source_example: str
    provenance: str = PROVENANCE_ORIGINAL

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"chunk {self.chunk_id!r}: unknown provenance {self.provenance!r}")
        object.__setattr__(self, "token_len", count_tokens(self.text))

    @property
    def text(self) -> str:
        """Full indexed text: the title as a heading line, then the body."""
        return f"{self.title}\n{self.body}"


def load_examples(path: str | Path, limit: int | None = None) -> list[Example]:
    """Load the first ``limit`` examples (all when None) of a line-delimited
    HotpotQA-style file, in file order, reading no line past them.

    Raises ParseError naming the offending record index for malformed
    records, and ValidationError when a gold title is absent from the
    context paragraphs or an ``_id`` repeats an earlier record's.
    """
    examples = []
    first_index: dict[str, int] = {}
    for i, record in islice(json_lines(path, "record"), limit):
        example = _example_from_record(record, i)
        first = first_index.setdefault(example.id, i)
        if first != i:
            raise ValidationError(f"record {i}: _id {example.id!r} repeats record {first}")
        examples.append(example)
    return examples


def json_lines(path: str | Path, label: str) -> Iterator[tuple[int, dict]]:
    """(line index, object) of each non-blank line of a UTF-8 JSON-lines file.

    A line that is not a JSON object raises ParseError naming ``label`` and
    its index; bytes that are not UTF-8 raise ParseError naming the file.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            for i, line in enumerate(handle):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{label} {i}: invalid JSON ({exc})") from exc
                if not isinstance(record, dict):
                    raise ParseError(f"{label} {i}: a JSON {type(record).__name__}, not an object")
                yield i, record
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line with ``write_atomic``."""
    write_atomic(path, (json.dumps(record) + "\n" for record in records))


def write_atomic(path: str | Path, parts: Iterable[str]) -> None:
    """Write ``parts`` to ``<path>.tmp``, then move it onto ``path``.

    A write that fails midway removes the temporary file and leaves any
    previous ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _example_from_record(record: dict, index: int) -> Example:
    for key in ("_id", "question", "answer", "supporting_facts", "context"):
        if key not in record:
            raise ParseError(f"record {index}: missing field {key!r}")
    facts = record["supporting_facts"]
    if type(facts) is not list or any(type(fact) is not list for fact in facts):
        # A string fact would unpack character by character: "T0" as the title "T".
        raise ParseError(f"record {index}: supporting_facts must be a list of [title, sentence_idx] lists")
    try:
        gold_titles = [title for title, _ in facts]
        context = [(title, sentences) for title, sentences in record["context"]]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"record {index}: malformed context or supporting_facts ({exc})") from exc
    for title, sentences in context:
        if type(sentences) is not list:  # a string would become one sentence per character
            raise ParseError(f"record {index}: the sentences of paragraph {title!r} are not a list")
    # Every text must be a JSON string, as in a chunk record: str() would read null as "None".
    texts = [(name, record[name]) for name in ("_id", "question", "answer")]
    texts += [("title", title) for title in gold_titles] + [("title", title) for title, _ in context]
    texts += [("sentence", sentence) for _, sentences in context for sentence in sentences]
    for name, value in texts:
        if type(value) is not str:
            raise ParseError(f"record {index}: {name} must be a string, not {json.dumps(value)}")
    try:
        return Example(
            id=record["_id"],
            question=record["question"],
            gold_answer=record["answer"],
            gold_titles=frozenset(gold_titles),
            paragraphs=tuple((title, tuple(sentences)) for title, sentences in context),
        )
    except ValidationError as exc:
        raise ValidationError(f"record {index}: {exc}") from exc


def chunk_corpus(examples: Iterable[Example]) -> list[Chunk]:
    """One chunk per context paragraph, title preserved, provenance=original."""
    chunks: list[Chunk] = []
    for example in examples:
        for j, (title, sentences) in enumerate(example.paragraphs):
            chunks.append(
                Chunk(
                    chunk_id=f"{example.id}-p{j}",
                    title=title,
                    body=" ".join(sentences),
                    source_example=example.id,
                )
            )
    return chunks


def chunk_to_record(chunk: Chunk) -> dict:
    return dict(vars(chunk))  # the fields in declaration order


def chunk_from_record(record: dict) -> Chunk:
    """The chunk of a chunk-file line or snapshot record: five strings and ``token_len``, else ParseError.

    ``Chunk`` computes its own count; the record's ``token_len`` must be that
    integer, so a record cannot understate its cost.
    """
    try:
        texts = {name: record[name] for name in ("chunk_id", "title", "body", "source_example", "provenance")}
        token_len = record["token_len"]
    except KeyError as exc:
        raise ParseError(f"chunk record missing field {exc}") from exc
    for name, value in texts.items():
        if type(value) is not str:
            raise ParseError(f"chunk record field {name!r} must be a string, not {json.dumps(value)}")
    chunk = Chunk(**texts)
    if type(token_len) is not int or token_len != chunk.token_len:
        raise ParseError(f"chunk {chunk.chunk_id!r}: token_len {json.dumps(token_len)}, not {chunk.token_len}")
    return chunk


def write_chunks(path: str | Path, chunks: Iterable[Chunk]) -> None:
    write_json_lines(path, map(chunk_to_record, chunks))


def read_chunks(path: str | Path) -> list[Chunk]:
    return [chunk_from_record(record) for _, record in json_lines(path, "chunk record")]

