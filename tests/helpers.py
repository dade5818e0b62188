"""Shared builders for test fixtures, HTTP doubles, and the references for retrieval, ranking and slot resolution."""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterable

from adagate.corpus import Chunk, chunk_corpus
from adagate.index import HashingEmbedder, Postings, RemoteEmbedder, Vector, VectorIndex, cosine
from adagate.oracle import SLOT_PATTERN, Fact, Ledger
from adagate.synthetic import WorldSpec, generate_world

WORLD_DIM = 2**20


def builtin_fixture_path() -> Path:
    """Path of the bundled two-example fixture corpus."""
    return Path(str(resources.files("adagate").joinpath("data/fixture.jsonl")))


def sized_chunk(chunk_id: str, token_len: int, source: str = "ex", title: str | None = None) -> Chunk:
    """Chunk with an exact token length and vocabulary unique to its id."""
    title = title or f"title {chunk_id}"
    needed = token_len - len(title.split())
    assert needed >= 0, "token_len too small for the title"
    body = " ".join(f"{chunk_id}w{i}" for i in range(needed))
    return Chunk(chunk_id, title, body, source)


def fact_chunk(
    chunk_id: str,
    entity: str,
    relation: str,
    value: str,
    *,
    low: bool = False,
    filler: str = "",
    source: str = "ex",
    title: str | None = None,
) -> Chunk:
    mark = " ~" if low else ""
    body = f"the {entity} {relation} {value}. ENT[{entity}] REL[{relation}] VAL[{value}]{mark}."
    if filler:
        body = f"{body} {filler}"
    return Chunk(chunk_id, title or f"{entity} page", body, source)


def build_world(n_questions: int, seed: int = 7, dim: int = WORLD_DIM, **spec_kwargs):
    """Examples, chunks, and a populated 'clean' index for a synthetic world."""
    examples = generate_world(WorldSpec(n_questions=n_questions, seed=seed, **spec_kwargs))
    chunks = chunk_corpus(examples)
    index = VectorIndex(HashingEmbedder(dim=dim))
    index.upsert("clean", chunks)
    return examples, chunks, index


_KEEP = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def reference_normalize_tokens(text: str) -> list[str]:
    """Character-loop definition of ``normalize_tokens``: split, then trim the edges."""
    tokens = []
    for raw in text.lower().split():
        start = 0
        end = len(raw)
        while start < end and raw[start] not in _KEEP:
            start += 1
        while end > start and raw[end - 1] not in _KEEP:
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


def reference_unit_vector(coords: list[int]) -> Vector:
    """L2-normalized counts of ``coords`` in ascending coordinate order, one comprehension per step."""
    if not coords:
        return {}
    distinct = sorted(set(coords))
    if len(distinct) == len(coords):
        return dict.fromkeys(distinct, 1.0 / math.sqrt(len(coords)))
    counts = Counter(coords)
    norm = math.sqrt(sum(count * count for count in counts.values()))
    shared = {count: count / norm for count in set(counts.values())}
    return {coord: shared[counts[coord]] for coord in distinct}


def densify(vector: Vector, dim: int) -> list[float]:
    """Expand a sparse vector to its full component list."""
    dense = [0.0] * dim
    for coord, value in vector.items():
        dense[coord] = value
    return dense


def reference_cosine(a: Vector, b: Vector) -> float:
    """``cosine`` by definition: shared coordinates summed one by one in ascending order, then clamped."""
    value = 0.0
    for coord in sorted(a):
        if coord in b:
            value += a[coord] * b[coord]
    return max(-1.0, min(1.0, value))


def brute_force_top_k(
    embedder: HashingEmbedder | RemoteEmbedder,
    chunks: Iterable[Chunk],
    query_text: str,
    k: int,
) -> list[tuple[str, float]]:
    """Exhaustive cosine scan; the reference oracle for query_top_k."""
    query = embedder.embed_one(query_text)
    scored = [(c.chunk_id, cosine(embedder.embed_one(c.text), query)) for c in chunks]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def reference_postings_top_k(postings: Postings, query: Vector, k: int) -> list[tuple[str, float]]:
    """``_postings_top_k`` with its touched chunks ranked by ``heapq.nsmallest`` over a generator.

    The reference for the one sort that ranks them: the same sums, the same
    ``(-clamped score, chunk id)`` order and the same zero-score fill.
    """
    ids, starts, vectors = postings
    mask = len(starts) - 2
    acc: dict[str, float] = {}
    for coord in sorted(query):
        qv = query[coord]
        bucket = coord & mask
        for chunk_id in ids[starts[bucket] : starts[bucket + 1]]:
            value = vectors[chunk_id].get(coord)
            if value is not None:
                acc[chunk_id] = acc.get(chunk_id, 0.0) + value * qv
    ranked = [
        (chunk_id, -neg)
        for neg, chunk_id in heapq.nsmallest(
            k, ((-max(-1.0, min(1.0, score)), chunk_id) for chunk_id, score in acc.items())
        )
    ]
    if len(ranked) < k:
        untouched = (chunk_id for chunk_id in vectors if chunk_id not in acc)
        ranked += [(chunk_id, 0.0) for chunk_id in islice(untouched, k - len(ranked))]
    return ranked


@dataclass(frozen=True)
class Slot:
    """One required fact slot parsed from a question."""

    entity_ref: str
    relation: str

    def backref(self) -> int | None:
        match = re.match(r"^\*(\d+)$", self.entity_ref)
        return int(match.group(1)) if match else None


def parse_slots(question: str) -> list[Slot]:
    return [Slot(entity_ref=e.strip(), relation=r.strip()) for e, r in SLOT_PATTERN.findall(question)]


def ledger_matching(ledger: Ledger, entity: str, relation: str) -> list[Fact]:
    """Facts for (entity, relation), best first (confidence, then value, source)."""
    hits = [
        f
        for f in ledger.facts
        if f.entity.lower() == entity.lower() and f.relation.lower() == relation.lower()
    ]
    hits.sort(key=lambda f: (-f.confidence, f.value, f.source_chunk))
    return hits


def reference_resolve_slots(question: str, ledger: Ledger) -> list[tuple[Slot, str | None, Fact | None]]:
    """Slot resolution through parsed slots and fully sorted matches: ``oracle.resolve_slots`` by definition."""
    resolved: list[tuple[Slot, str | None, Fact | None]] = []
    values: list[str | None] = []
    for slot in parse_slots(question):
        ref = slot.backref()
        if ref is not None:
            entity = values[ref - 1] if 1 <= ref <= len(values) else None
        else:
            entity = slot.entity_ref
        fact = None
        if entity is not None:
            facts = ledger_matching(ledger, entity, slot.relation)
            fact = facts[0] if facts else None
        resolved.append((slot, entity, fact))
        values.append(fact.value if fact else None)
    return resolved


def reference_match_slots(question: str, ledger: Ledger) -> list[Fact]:
    """Best ledger fact per resolvable question slot, in slot order."""
    return [fact for _, _, fact in reference_resolve_slots(question, ledger) if fact is not None]


def reference_seal_select(question: str, retrieved: list[Chunk], ledger: Ledger) -> list[Chunk]:
    """``controller._seal_select`` over ``reference_match_slots``."""
    if not retrieved:
        return []
    candidates = sorted(
        reference_match_slots(question, ledger) or ledger.facts,
        key=lambda f: (-f.confidence, f.entity, f.relation, f.value, f.source_chunk),
    )
    if not candidates:
        return [retrieved[0]]
    best = candidates[0]
    return [c for c in retrieved if c.chunk_id == best.source_chunk]


class FakeResponse:
    def __init__(self, status_code: int, body: dict | None = None, headers: dict | None = None):
        self.status_code = status_code
        self._body = body or {}
        self.text = json.dumps(self._body)
        self.headers = headers or {}

    def json(self):
        return self._body


class FakeSession:
    """Replays queued responses in order; a queued exception is raised instead."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response
