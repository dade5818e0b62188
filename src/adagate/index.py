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

``fnv1a64`` is that hash, one token at a time. ``HashingEmbedder`` gives
exactly the same hashes in lockstep. The tokens of up to 256 uncached texts
are the lanes of one Python big int, and each byte position costs a few
C-level big-int operations over all lanes (xor the column of bytes,
multiply by the prime, mask every lane, keep the state of tokens that have
ended) instead of one interpreted step per byte per token. When dim is a
power of two only the low log2(dim) bits of the state decide
``hash % dim``, so a lane is 4 bytes (8 above dim 2**23) and holds the
coordinate itself; other dims keep the full 64-bit state in 16-byte lanes.
A pass makes one step per byte of its longest token over big ints of a few
bytes per token. On a 5,000-chunk synthetic world (300k tokens, dim 2**20,
CPython 3.11 on a 2-vCPU Xeon) embedding took 0.38 s instead of 1.0 s,
split about evenly between tokenizing, hashing and building the vectors.
Calls with fewer than 32 tokens, where the setup costs more than the steps
save, and tokens longer than 255 bytes are hashed one at a time.

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
import re
import struct
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, TextIO

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

# A maximal run of non-whitespace, trimmed to its first and last [a-z0-9_].
_TOKEN = re.compile(r"[a-z0-9_](?:\S*[a-z0-9_])?")

# Lockstep hashing: texts per pass (bounds the big ints), the fewest tokens
# worth a pass, and the longest token a one-byte length admits.
_GROUP_TEXTS = 256
_LOCKSTEP_MIN_TOKENS = 32
_LANE_MAX_BYTES = 255
# Lane width in bytes -> struct code of one 8- or 4-byte word, and words per lane.
_LANE_WORDS = {4: ("I", 1), 8: ("Q", 1), 16: ("Q", 2)}

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
    return _TOKEN.findall(text.lower())


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
        # FNV-1a is exact modulo 2**bits for any bits <= 64, so a power-of-two
        # dim needs only its own bits of the state, and they are the coordinate.
        self._pow2 = dim & (dim - 1) == 0 and dim <= 1 << 64
        bits = dim.bit_length() - 1 if self._pow2 else 64
        self._state_mask = (1 << bits) - 1
        self._prime = FNV64_PRIME & self._state_mask
        # A lane holds state * prime before the mask, so no carry reaches the next lane.
        product_bits = bits + self._prime.bit_length()
        self._lane = 4 if product_bits <= 32 else 8 if product_bits <= 64 else 16

    def embed_one(self, text: str) -> Vector:
        vector = self._cache.get(text)
        if vector is None:
            vector = self._cache[text] = _unit_vector(self._coordinates(normalize_tokens(text)))
        return vector

    def embed(self, texts: Sequence[str]) -> list[Vector]:
        cache = self._cache
        missing = [text for text in dict.fromkeys(texts) if text not in cache]
        for start in range(0, len(missing), _GROUP_TEXTS):
            group = missing[start : start + _GROUP_TEXTS]
            tokens = [normalize_tokens(text) for text in group]
            coords = iter(self._coordinates(list(chain.from_iterable(tokens))))
            for text, text_tokens in zip(group, tokens):
                cache[text] = _unit_vector(list(islice(coords, len(text_tokens))))
        return [cache[text] for text in texts]

    def _coordinates(self, tokens: list[str]) -> list[int]:
        """``fnv1a64(token) % dim`` for every token, in order."""
        data = list(map(str.encode, tokens))
        if len(data) < _LOCKSTEP_MIN_TOKENS:
            return [fnv1a64(token) % self.dim for token in data]
        lengths = list(map(len, data))
        long = {}
        if max(lengths) > _LANE_MAX_BYTES:
            long = {i: token for i, token in enumerate(data) if len(token) > _LANE_MAX_BYTES}
            for i in long:
                data[i], lengths[i] = b"", 0
        states = self._lockstep(data, bytes(lengths))
        for i, token in long.items():
            states[i] = fnv1a64(token) & self._state_mask
        return states if self._pow2 else [state % self.dim for state in states]

    def _lockstep(self, data: list[bytes], lengths: bytes) -> list[int]:
        """FNV-1a states masked to the kept bits, hashing every token at once.

        Token ``i`` is lane ``i`` of the big int ``h``, ``self._lane`` bytes
        wide. Step ``j`` xors byte ``j`` of every token into its lane,
        multiplies all lanes by the prime and masks each back to the kept
        bits; lanes of tokens shorter than ``j + 1`` keep their state, so an
        empty token keeps the offset basis.
        """
        n, width = len(data), self._lane
        longest = max(lengths)
        padded = struct.Struct(f"{longest}s" * n).pack(*data)  # NUL-padded, one row per token
        # Each token's length repeated across its lane, for the active masks.
        lane_lengths = bytearray(n * width)
        for k in range(width):
            lane_lengths[k::width] = lengths
        lanes = int.from_bytes(self._state_mask.to_bytes(width, "little") * n, "little")
        h = int.from_bytes((FNV64_OFFSET & self._state_mask).to_bytes(width, "little") * n, "little")
        column = bytearray(n * width)
        ends = set(lengths)
        active = None  # every lane, until the shortest token ends
        for j in range(longest):
            if j in ends:
                table = bytes(j + 1) + b"\xff" * (255 - j)  # length > j -> 0xff
                active = int.from_bytes(lane_lengths.translate(table), "little")
            column[::width] = padded[j::longest]
            stepped = ((h ^ int.from_bytes(column, "little")) * self._prime) & lanes
            h = stepped if active is None else h ^ ((h ^ stepped) & active)
        # Explicit byte order and standard sizes: the same lanes on any host.
        code, words = _LANE_WORDS[width]
        return list(struct.Struct(f"<{n * words}{code}").unpack(h.to_bytes(n * width, "little"))[::words])


def _unit_vector(coords: list[int]) -> Vector:
    """L2-normalized counts of ``coords``, in ascending coordinate order."""
    if not coords:
        return {}
    distinct = sorted(set(coords))
    if len(distinct) == len(coords):
        return dict.fromkeys(distinct, 1.0 / math.sqrt(len(coords)))
    counts = Counter(coords)
    norm = math.sqrt(sum(count * count for count in counts.values()))
    # One float object per distinct count: most coordinates count 1, and a
    # large index holds millions of components.
    shared = {count: count / norm for count in set(counts.values())}
    return {coord: shared[counts[coord]] for coord in distinct}


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
            dim, backend = read_snapshot_header(handle)
            if embedder is None:
                if backend != "hash":
                    raise SchemaError(
                        "snapshot was built with a remote embedder; pass the matching embedder explicitly"
                    )
                embedder = HashingEmbedder(dim=dim)
            elif embedder.dim != dim:
                raise SchemaError(f"snapshot dim {dim} does not match embedder dim {embedder.dim}")
            elif backend != embedder.backend:
                # The query path is chosen by backend and relies on its vectors.
                raise SchemaError(
                    f"snapshot was built with the {backend!r} embedder, "
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


def read_snapshot_header(handle: TextIO) -> tuple[int, object]:
    """Read and check a snapshot's first line; return its dim and embedder backend."""
    try:
        header = json.loads(handle.readline())
    except ValueError as exc:  # also undecodable bytes
        raise ParseError(f"snapshot header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"snapshot header is a JSON {type(header).__name__}, not an object")
    if header.get("schema") != SNAPSHOT_SCHEMA:
        raise SchemaError(f"unexpected snapshot schema {header.get('schema')!r}")
    dim = header.get("dim")
    if type(dim) is not int or dim < 1:
        raise SchemaError(f"snapshot dim must be a positive integer, not {dim!r}")
    return dim, header.get("embedder")


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
