"""Embedding and top-k retrieval over named namespaces.

The offline embedder is a hashed bag-of-words. Its exact definition, which
tests reproduce independently, is:

1. lowercase the text and split on whitespace;
2. strip leading and trailing characters outside ``[a-z0-9_]`` from each
   token, dropping tokens that become empty;
3. hash each token with FNV-1a 64-bit over its UTF-8 bytes;
4. accumulate a count at coordinate ``hash % dim`` (dim defaults to 256);
5. L2-normalize the result. Empty text yields the all-zero vector, and
   cosine against a zero vector is defined as 0.

Vectors are stored sparsely as coordinate -> value maps over the fixed
dimension, which keeps very large dims cheap. Hash collisions are
acceptable; determinism is the requirement. A remote HTTP backend
implementing the common embeddings wire format can be substituted via
configuration; no test requires it.

Retrieval is exact either way. Hashed vectors are sparse and non-negative,
so their namespaces are scored term-at-a-time over postings lists
(coordinate -> chunk ids); see Zobel & Moffat, "Inverted files for text
search engines", ACM Computing Surveys 2006. Remote vectors are dense and
may be negative, so their namespaces are scanned.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import Chunk, chunk_from_record, chunk_to_record
from .errors import (
    DuplicateIdError,
    ParseError,
    SchemaError,
    TransportError,
    UnknownNamespaceError,
)
from .transport import post_json

if TYPE_CHECKING:
    import requests

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_KEEP = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")

SNAPSHOT_SCHEMA = "index@1"
DEFAULT_DIM = 256

# Sparse unit vector: coordinate -> component, zero coordinates omitted.
Vector = dict[int, float]
# Namespace postings: coordinate -> the one chunk id holding it, or a list of
# ids when several chunks share it, plus the chunk id -> vector map they were
# built from, where the components are read.
Postings = tuple[dict[int, "str | list[str]"], dict[str, Vector]]


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def normalize_tokens(text: str) -> list[str]:
    """Lowercased whitespace tokens with non-[a-z0-9_] edges stripped."""
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


def cosine(a: Vector, b: Vector) -> float:
    """Cosine between unit (or zero) sparse vectors; zero vectors score 0."""
    if len(b) < len(a):
        a, b = b, a
    value = 0.0
    for coord in sorted(a):
        other = b.get(coord)
        if other is not None:
            value += a[coord] * other
    return max(-1.0, min(1.0, value))


class HashingEmbedder:
    """Deterministic hashed bag-of-words embedder."""

    backend = "hash"

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._cache: dict[str, Vector] = {}

    def embed_one(self, text: str) -> Vector:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        counts: dict[int, float] = {}
        for token in normalize_tokens(text):
            coord = fnv1a64(token.encode("utf-8")) % self.dim
            counts[coord] = counts.get(coord, 0.0) + 1.0
        norm = math.sqrt(sum(v * v for v in counts.values()))
        # One float object per distinct count: most coordinates count 1, and
        # a large index holds millions of components.
        shared: dict[float, float] = {}
        vector = {}
        for coord, count in sorted(counts.items()):
            value = shared.get(count)
            if value is None:
                value = shared[count] = count / norm
            vector[coord] = value
        self._cache[text] = vector
        return vector

    def embed(self, texts: Sequence[str]) -> list[Vector]:
        return [self.embed_one(text) for text in texts]


class RemoteEmbedder:
    """Client for an HTTP service speaking the common embeddings wire format.

    The API key is read from the environment variable named ``key_env``;
    it is never passed on the command line. Requests follow the shared
    policy of ``transport.post_json``.
    """

    backend = "remote"

    def __init__(
        self,
        url: str,
        dim: int,
        key_env: str = "ADAGATE_EMBED_KEY",
        model: str = "text-embedding-3-small",
        timeout: float = 30.0,
        max_attempts: int = 3,
        session: requests.Session | None = None,
    ):
        self.url = url.rstrip("/")
        self.dim = dim
        self.key_env = key_env
        self.model = model
        self.timeout = timeout
        self.max_attempts = max_attempts
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._cache: dict[str, Vector] = {}

    def embed(self, texts: Sequence[str]) -> list[Vector]:
        missing = [t for t in texts if t not in self._cache]
        if missing:
            for text, values in zip(missing, self._request(missing)):
                if len(values) != self.dim:
                    raise TransportError(
                        f"embedding service returned dim {len(values)}, expected {self.dim}",
                        retriable=False,
                    )
                norm = math.sqrt(sum(v * v for v in values))
                self._cache[text] = (
                    {i: v / norm for i, v in enumerate(values) if v} if norm else {}
                )
        return [self._cache[t] for t in texts]

    def embed_one(self, text: str) -> Vector:
        return self.embed([text])[0]

    def _request(self, texts: list[str]) -> list[list[float]]:
        body = post_json(
            self._session,
            f"{self.url}/embeddings",
            {"model": self.model, "input": texts},
            key_env=self.key_env,
            timeout=self.timeout,
            max_attempts=self.max_attempts,
            service="embedding service",
        )
        try:
            return [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise TransportError(f"malformed embedding response: {exc}", retriable=False) from exc


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    namespace: str


class VectorIndex:
    """In-memory vector store with isolated namespaces and exact top-k queries.

    Reads are lock-free; writes take a lock per index. A namespace of
    hashed vectors is scored over postings built by its first query after
    a write; a namespace of remote (dense) vectors is scanned. Both paths
    return the same hits with bit-identical scores.
    """

    def __init__(self, embedder: HashingEmbedder | RemoteEmbedder):
        self.embedder = embedder
        self._spaces: dict[str, dict[str, tuple[Chunk, Vector]]] = {}
        # Derived from the vectors: built lazily, dropped by every upsert.
        self._postings: dict[str, Postings] = {}
        self._lock = threading.Lock()

    def namespaces(self) -> list[str]:
        return sorted(self._spaces)

    def size(self, namespace: str) -> int:
        return len(self._space(namespace))

    def upsert(self, namespace: str, chunks: Sequence[Chunk]) -> int:
        """Insert or replace chunks; returns the number processed."""
        seen: set[str] = set()
        duplicates: set[str] = set()
        for chunk in chunks:
            if chunk.chunk_id in seen:
                duplicates.add(chunk.chunk_id)
            seen.add(chunk.chunk_id)
        if duplicates:
            raise DuplicateIdError(sorted(duplicates))
        vectors = self.embedder.embed([c.text for c in chunks])
        with self._lock:
            space = self._spaces.setdefault(namespace, {})
            for chunk, vec in zip(chunks, vectors):
                space[chunk.chunk_id] = (chunk, vec)
            self._postings.pop(namespace, None)
        return len(chunks)

    def query_top_k(self, namespace: str, query_text: str, k: int) -> list[RetrievalHit]:
        """Top-k hits by cosine, tie-broken by ascending chunk id."""
        if k < 1:
            raise ValueError("k must be positive")
        space = self._space(namespace)
        query = self.embedder.embed_one(query_text)
        if self.embedder.backend == HashingEmbedder.backend:
            ranked = self._postings_top_k(namespace, space, query, k)
        else:
            ranked = _scan_top_k(space, query, k)
        return [
            RetrievalHit(chunk_id=chunk_id, score=score, namespace=namespace) for chunk_id, score in ranked
        ]

    def _postings_top_k(
        self, namespace: str, space: dict[str, tuple[Chunk, Vector]], query: Vector, k: int
    ) -> list[tuple[str, float]]:
        """Term-at-a-time scoring, bit-identical to ``_scan_top_k`` for non-negative vectors.

        Each chunk's products are summed from 0.0 in ascending coordinate
        order, exactly as ``cosine`` sums the intersection, so the scores
        are the same floats. Chunks sharing no coordinate with the query
        score 0.0, below every touched chunk, and fill the remaining places
        in ascending id order, as the scan's sort puts them. A query sees
        the namespace as it was when the postings were built, even while an
        upsert replaces vectors.
        """
        built = self._postings.get(namespace)
        if built is None:
            with self._lock:
                built = self._postings.get(namespace)
                if built is None:
                    built = self._postings[namespace] = _build_postings(space)
        postings, vectors = built
        acc: dict[str, float] = {}
        for coord in sorted(query):
            held = postings.get(coord)
            if held is None:
                continue
            qv = query[coord]
            for chunk_id in (held,) if type(held) is str else held:
                acc[chunk_id] = acc.get(chunk_id, 0.0) + vectors[chunk_id][coord] * qv
        ranked = [
            (chunk_id, -neg)
            for neg, chunk_id in heapq.nsmallest(
                k, ((-max(-1.0, min(1.0, score)), chunk_id) for chunk_id, score in acc.items())
            )
        ]
        if len(ranked) < k:
            untouched = (chunk_id for chunk_id in vectors if chunk_id not in acc)
            ranked += [(chunk_id, 0.0) for chunk_id in heapq.nsmallest(k - len(ranked), untouched)]
        return ranked

    def get_chunk(self, namespace: str, chunk_id: str) -> Chunk:
        space = self._space(namespace)
        try:
            return space[chunk_id][0]
        except KeyError as exc:
            raise UnknownNamespaceError(f"chunk {chunk_id!r} not in namespace {namespace!r}") from exc

    def chunks(self, namespace: str) -> list[Chunk]:
        return [entry[0] for _, entry in sorted(self._space(namespace).items())]

    def _space(self, namespace: str) -> dict[str, tuple[Chunk, Vector]]:
        try:
            return self._spaces[namespace]
        except KeyError as exc:
            raise UnknownNamespaceError(f"unknown namespace {namespace!r}") from exc

    def save(self, path: str | Path) -> None:
        """Write a line-delimited snapshot: header, then (namespace, chunk, vector)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            header = {
                "schema": SNAPSHOT_SCHEMA,
                "dim": self.embedder.dim,
                "embedder": self.embedder.backend,
            }
            handle.write(json.dumps(header) + "\n")
            for namespace in self.namespaces():
                space = self._spaces[namespace]
                for chunk_id in sorted(space):
                    chunk, vec = space[chunk_id]
                    coords = sorted(vec)
                    record = {
                        "namespace": namespace,
                        "chunk": chunk_to_record(chunk),
                        "vector": {
                            "idx": coords,
                            "val": [vec[c] for c in coords],
                        },
                    }
                    handle.write(json.dumps(record) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(
        cls, path: str | Path, embedder: HashingEmbedder | RemoteEmbedder | None = None
    ) -> "VectorIndex":
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            header_line = handle.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"snapshot header is not JSON: {exc}") from exc
            if header.get("schema") != SNAPSHOT_SCHEMA:
                raise SchemaError(f"unexpected snapshot schema {header.get('schema')!r}")
            dim = int(header["dim"])
            if embedder is None:
                if header.get("embedder") != "hash":
                    raise SchemaError(
                        "snapshot was built with a remote embedder; pass the matching embedder explicitly"
                    )
                embedder = HashingEmbedder(dim=dim)
            elif embedder.dim != dim:
                raise SchemaError(f"snapshot dim {dim} does not match embedder dim {embedder.dim}")
            elif header.get("embedder") != embedder.backend:
                # The query path is chosen by backend and relies on its vectors.
                raise SchemaError(
                    f"snapshot was built with the {header.get('embedder')!r} embedder, "
                    f"not {embedder.backend!r}"
                )
            index = cls(embedder)
            for i, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    chunk = chunk_from_record(record["chunk"])
                    sparse = record["vector"]
                    vec = {int(c): float(v) for c, v in zip(sparse["idx"], sparse["val"])}
                    namespace = str(record["namespace"])
                except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                    raise ParseError(f"snapshot record {i}: {exc}") from exc
                index._spaces.setdefault(namespace, {})[chunk.chunk_id] = (chunk, vec)
        return index


def _scan_top_k(space: dict[str, tuple[Chunk, Vector]], query: Vector, k: int) -> list[tuple[str, float]]:
    """Exact cosine scan over every chunk of a namespace."""
    scored = [(chunk_id, cosine(vec, query)) for chunk_id, (_, vec) in space.items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _build_postings(space: dict[str, tuple[Chunk, Vector]]) -> Postings:
    vectors = {chunk_id: vec for chunk_id, (_, vec) in space.items()}
    postings: dict[int, str | list[str]] = {}
    for chunk_id, vec in vectors.items():
        for coord in vec:
            held = postings.get(coord)
            if held is None:
                postings[coord] = chunk_id
            elif type(held) is str:
                postings[coord] = [held, chunk_id]
            else:
                held.append(chunk_id)
    return postings, vectors
