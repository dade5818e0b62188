"""Embedding and top-k retrieval over named namespaces.

The offline embedder is a hashed bag-of-words. Its exact definition, which
tests reproduce independently, is:

1. lowercase the text and split on whitespace;
2. strip leading and trailing characters outside ``[a-z0-9_]`` from each
   token, dropping tokens that become empty;
3. hash each token with CRC-32 (``zlib.crc32``) over its UTF-8 bytes, where
   a lone surrogate (which ``json.loads`` yields from an escape such as
   ``\\ud800``) takes the three bytes of its code point, as the
   ``surrogatepass`` error handler writes them;
4. mix the hash by multiply-shift, ``mixed = hash * 0x9E3779B1 mod 2**32``,
   and accumulate a count at coordinate ``mixed * dim >> 32`` (dim defaults
   to 2**20: at 256 so many tokens collide that the first 200 questions of
   a seed-7 5,000-chunk world scored accuracy 0.005 against 0.97, and
   every postings bucket is crowded);
5. L2-normalize the result. Empty text yields the all-zero vector, and
   cosine against a zero vector is defined as 0.

``normalize_tokens`` is steps 1 and 2, and the reference; ``token_bytes``
gives the same tokens as the bytes step 3 hashes. ASCII text (``str.isascii``
costs O(1)) takes a byte path of C-level calls: encode the text once, fold it
with one ``bytes.translate`` table, ``split()`` it and ``strip`` each run of
every ASCII byte outside ``[a-z0-9_]``. The table maps A-Z to a-z, and also
``\\x1c``-``\\x1f`` to a space, because ``str.split`` and the regex ``\\s``
treat those four separators as whitespace and ``bytes.split`` does not. Any
other text takes ``normalize_tokens`` and a UTF-8 encode. Every synthetic
passage is ASCII; how many passages of a real corpus are, and so what the
byte path saves there, is not measured, as no HotpotQA data ships here.

Step 4 is multiply-shift (Dietzfelbinger, Hagerup, Katajainen & Penttonen,
J. Algorithms 1997): at a power-of-two dim the coordinate is exactly the top
log2(dim) bits of the 32-bit product, and at any other dim the same formula
is Lemire's multiply-and-shift reduction. It is the kind of near-universal
family that the analysis of feature hashing assumes (Weinberger et al., ICML
2009), so tokens collide by chance and not in families: the previous
coordinate, the low bits of FNV-1a, put 76 of the 2,500 fact tokens of a
500-question synthetic world (entities, relations and values) on another
one's coordinate at dim 2**20, where uniform hashing expects 6; this one
puts none there. Each token costs one C call; the rest is SIMD within a
register (SWAR; Fisher & Dietz, LCPC 1998): a text's hashes are the 64-bit
lanes of one int, multiplied, masked, scaled and shifted once for the text.
Embedding the 5,000 chunks of a seed-7 world (CPython 3.11 on a busy shared
2-vCPU Xeon, median CPU time of 7 runs, four rounds) took 270-295 ms this
way, 316-330 ms at three integer operations a token, and 298-303 ms with one
int for a whole ``embed`` call, so each text is still embedded on its own.

Vectors are stored sparsely as coordinate -> value maps over the fixed
dimension, which keeps very large dims cheap. Hash collisions are
acceptable; determinism is the requirement. A remote HTTP backend
implementing the common embeddings wire format can be substituted via
configuration; tests run it against a loopback service. A chunk's vector is
computed once (by ``embed``, which caches nothing) or read from the
snapshot, and only the index holds it (``get_entry``). ``embed_one`` caches
query vectors by text.

Retrieval is exact either way. Hashed vectors are sparse and non-negative,
so their namespaces are scored term-at-a-time over postings; see Zobel &
Moffat, "Inverted files for text search engines", ACM Computing Surveys
2006. Remote vectors are dense and may be negative, so their namespaces are
scanned. The postings are a power-of-two number of buckets: bucket
``coord & mask`` lists, once each, the ids of the chunks with a coordinate
in that bucket, and a query reads each listed chunk's own component
(``vector.get(coord)``) to skip ids that only share the bucket. The buckets
are laid end to end in one tuple, found through an array of start offsets,
so a bucket costs 4 bytes and an id 8. At 4-8 stored components per bucket,
a 5,000-chunk namespace (291k components, dim 2**20) takes 2.7 MB under
tracemalloc and its build peaks at 10.7 MB; a map keyed by coordinate took
13.1 MB (16.9 MB peak), and a tuple per bucket 5.6 MB. Chunks that share
no coordinate with a query score 0.0 and fill any places left in ascending
id order, so the postings keep the chunk ids sorted and a query costs the
chunks it touches plus at most k of the rest.

A namespace of at most ``_ONE_BUCKET_MAX_CHUNKS`` (32) chunks is one bucket
of every id, made without the build loop: a query then reads every chunk's
component at each of its coordinates. The build that is skipped costs about
as much as ten such queries at any size, and a small namespace is typically
one question's own pool, written and then queried a few times.

A snapshot (schema ``index@2``) is JSON lines: a header ``{"schema", "dim",
"embedder"}``, which for a hash store also names the coordinate function
(``"hash": "crc32-ms"``), then one record ``{"namespace", "chunk", "vector":
{"idx", "val"}}`` per chunk, in namespace and then chunk id order. ``idx``
is the base64 of the vector's coordinates, ascending, as little-endian
uint32, and ``val`` the base64 of its components in the same order as little-endian
IEEE-754 float64, whatever the host's byte order. A uint32 holds every
coordinate only while dim is at most 2**32, so the embedder and the
snapshot reader refuse a larger dim. The vectors are packed because
printing and parsing float text was most of a snapshot's cost: on the
1,500-record store of a seed-7 ``cli-sweep`` (dim 2**20, CPython 3.11 on a
2-vCPU Xeon, median of 9), ``load`` went from 113 ms to 40 ms, ``save``
from 146 ms to 41 ms and the file from 3.54 MB to 2.45 MB against the
number lists of ``index@1``, which is no longer read. Decoding is C-level
work (base64, ``array``, ``dict(zip(...))``) and gives back bit-identical
vectors with their keys in the same order. So are the component checks, a
``sum`` and, in a hash store, a ``min``: 0.9 and 2.3 ms of that store's
36 ms load (median of 50 on the same kind of host).

``load`` can be given one namespace, as ``run`` does: every line is still
parsed as JSON and read as far as its namespace, but only that namespace's
records are decoded and checked, so a damaged record fails only the loads
that decode it. On the same store (median of 15, on a busier host than
above) the whole store loaded in 57 ms and its 1,000 noise records alone in
41 ms; parsing the 1,500 lines takes about 17 ms of either.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from array import array
from base64 import b64decode, b64encode
from collections import Counter
from contextlib import closing
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, mul
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence
from zlib import crc32

from .corpus import Chunk, chunk_from_record, chunk_to_record, json_lines, write_json_lines
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

# Multiply-shift's odd multiplier (Knuth's 2654435761, the prime nearest 2**32
# over the golden ratio) and the coordinate function's name in a hash store's
# header.
_MULTIPLIER = 0x9E3779B1
HASH_FUNCTION = "crc32-ms"
# A text's hashes are the 64-bit lanes of one int, in the host's byte order
# both ways; this is one lane of the mask that keeps each lane's low 32 bits.
_LANE_LOW32 = ((1 << 32) - 1).to_bytes(8, sys.byteorder)

# A maximal run of non-whitespace, trimmed to its first and last [a-z0-9_].
_TOKEN = re.compile(r"[a-z0-9_](?:\S*[a-z0-9_])?")
# The same tokens of ASCII text, as bytes: fold A-Z to a-z and \x1c-\x1f
# (whitespace to ``\S``, not to ``bytes.split``) to a space, split, then
# strip every ASCII byte outside [a-z0-9_] from both ends of each run.
_ASCII_FOLD = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ\x1c\x1d\x1e\x1f", b"abcdefghijklmnopqrstuvwxyz    ")
_ASCII_EDGES = bytes(b for b in range(128) if b not in b"abcdefghijklmnopqrstuvwxyz0123456789_")

# Namespaces of at most this many chunks are one bucket of every id: no build
# loop, and a query reads each id's component per query coordinate. Cost per
# namespace size (a seed-7 world at dim 2**20, k=3, 100 question queries;
# CPython 3.11 on a shared 2-vCPU Xeon, min of 30 builds and 15 passes):
#
#   chunks   build µs   bucketed query µs   one-bucket query µs   break-even queries
#       10         68                 9.6                  13.2                   18
#       20        133                 9.9                  20.1                   13
#       32        184                11.9                  30.1                   10
#       64        453                13.0                  61.9                    9
#      256       1747                13.1                 218.6                    8
#     1000       7895                15.4                 904.3                    9
#
# The build pays for itself after about ten queries at every size, so the
# limit bounds what one query past that loses: 18 µs at 32 chunks (200
# queries after one write lose about 3.5 ms), but 49 µs at 64 and 0.9 ms at
# 1,000, where a store that ``run`` loads answers hundreds of queries.
_ONE_BUCKET_MAX_CHUNKS = 32

SNAPSHOT_SCHEMA = "index@2"
DEFAULT_DIM = 1 << 20
EMBED_TIMEOUT_S = 30.0
# Coordinates are stored as uint32, so every coordinate below dim must fit one.
MAX_DIM = 1 << 32

# Snapshot vector arrays: little-endian uint32 coordinates and IEEE-754
# float64 components, whatever the host's own order and C type widths; and
# the embedder's uint64 hash lanes.
_COORDS, _VALUES, _LANES = "I", "d", "Q"
if array(_COORDS).itemsize != 4 or array(_VALUES).itemsize != 8 or array(_LANES).itemsize != 8:
    raise ImportError("vectors need a 4-byte 'I', an 8-byte 'd' and an 8-byte 'Q' array typecode")
_SWAP = sys.byteorder != "little"

# Sparse unit vector: coordinate -> component, zero coordinates omitted.
Vector = dict[int, float]
# Namespace postings: the ids of a power-of-two number of buckets laid end to
# end, where bucket ``b = coord & mask`` is ``ids[starts[b]:starts[b + 1]]``
# and holds once each chunk with a coordinate in that bucket, plus the chunk
# id -> vector map they were built from, in ascending id order, where the
# components are read. A small namespace is one bucket (mask 0) of every id.
Postings = tuple[tuple[str, ...], "array[int]", dict[str, Vector]]


def normalize_tokens(text: str) -> list[str]:
    """Lowercased whitespace tokens with non-[a-z0-9_] edges stripped."""
    return _TOKEN.findall(text.lower())


def token_bytes(text: str) -> list[bytes]:
    """``normalize_tokens(text)``, each token encoded as the hash reads it.

    ASCII text is tokenized as bytes in C-level calls; any other text takes
    ``normalize_tokens`` and a UTF-8 encode, where a lone surrogate takes
    the bytes ``surrogatepass`` writes.
    """
    if text.isascii():
        runs = text.encode().translate(_ASCII_FOLD).split()
        return list(filter(None, map(bytes.strip, runs, repeat(_ASCII_EDGES))))
    return [token.encode("utf-8", "surrogatepass") for token in normalize_tokens(text)]


def cosine(a: Vector, b: Vector) -> float:
    """Cosine between unit (or zero) sparse vectors; zero vectors score 0."""
    if len(b) < len(a):
        a, b = b, a
    value = 0.0
    # Shared coordinates in ascending order, as ``_postings_top_k`` sums them
    # (not ``sum()``, which compensates its rounding from CPython 3.12 on).
    # Filtering keeps the smaller vector's ascending key order, so the sort is
    # one pass even for near-duplicates that share most of their keys.
    for coord in sorted(filter(b.__contains__, a)):
        value += a[coord] * b[coord]
    return max(-1.0, min(1.0, value))


def _checked_dim(dim: int) -> int:
    """``dim`` if an embedder can have it; ValueError otherwise."""
    if not 0 < dim <= MAX_DIM:
        raise ValueError(f"dim must be between 1 and 2**32, not {dim}")
    return dim


class HashingEmbedder:
    """Deterministic hashed bag-of-words embedder."""

    backend = "hash"

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = _checked_dim(dim)
        self._cache: dict[str, Vector] = {}

    def embed_one(self, text: str) -> Vector:
        vector = self._cache.get(text)
        if vector is None:
            vector = self._cache[text] = self._vector(text)
        return vector

    def embed(self, texts: Sequence[str]) -> list[Vector]:
        vectors = {text: self._vector(text) for text in dict.fromkeys(texts)}
        return list(map(vectors.__getitem__, texts))

    def _vector(self, text: str) -> Vector:
        """The unit vector of ``text``: each token at ``(crc32 * multiplier mod 2**32) * dim >> 32``."""
        return _unit_vector(_coordinates(array(_LANES, map(crc32, token_bytes(text))), self.dim))


def _coordinates(hashes: array[int], dim: int) -> array[int]:
    """``hash * multiplier mod 2**32 * dim >> 32`` per uint32 hash, in 64-bit lanes that no product overflows."""
    low32 = int.from_bytes(_LANE_LOW32 * len(hashes), sys.byteorder)
    mixed = int.from_bytes(hashes, sys.byteorder) * _MULTIPLIER & low32
    coords = (mixed * dim >> 32) & low32
    return array(_LANES, coords.to_bytes(8 * len(hashes), sys.byteorder))


def _unit_vector(coords: Sequence[int]) -> Vector:
    """L2-normalized counts of ``coords``, in ascending coordinate order.

    Most texts have distinct coordinates, each 1/sqrt(n). Otherwise only the
    extra copies (coordinates equal to the one before) are counted, the squared
    norm is the exact int ``distinct - repeated + sum((1 + extra)**2)``, and
    every coordinate takes ``1/norm``, one shared float, before each repeated
    one takes ``(1 + extra)/norm``: the floats and key order of a full count.
    """
    if not coords:
        return {}
    coords = sorted(coords)
    vector = dict.fromkeys(coords, 1.0 / math.sqrt(len(coords)))
    if len(vector) == len(coords):
        return vector
    rest = coords[1:]
    extra = Counter(compress(rest, map(eq, coords, rest)))
    counts = [1 + copies for copies in extra.values()]
    norm = math.sqrt(len(vector) - len(counts) + sum(map(mul, counts, counts)))
    vector = dict.fromkeys(vector, 1 / norm)
    vector.update(zip(extra, [count / norm for count in counts]))
    return vector


class RemoteEmbedder:
    """Client for an HTTP service speaking the common embeddings wire format.

    The API key is read from the environment variable named ``key_env``;
    it is never passed on the command line. Requests follow the shared
    policy of ``transport.post_json``, each with a timeout of
    ``EMBED_TIMEOUT_S``.
    """

    backend = "remote"

    def __init__(
        self,
        url: str,
        dim: int,
        key_env: str = "ADAGATE_EMBED_KEY",
        model: str = "text-embedding-3-small",
        session: requests.Session | None = None,
    ):
        self.url = url.rstrip("/")
        self.dim = _checked_dim(dim)
        self.key_env = key_env
        self.model = model
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._cache: dict[str, Vector] = {}

    def embed(self, texts: Sequence[str]) -> list[Vector]:
        vectors: dict[str, Vector] = {}
        distinct = list(dict.fromkeys(texts))
        if distinct:
            for text, values in zip(distinct, self._request(distinct)):
                if len(values) != self.dim:
                    raise TransportError(f"embedding service returned dim {len(values)}, expected {self.dim}")
                vectors[text] = _dense_unit_vector(values)
        return [vectors[t] for t in texts]

    def embed_one(self, text: str) -> Vector:
        vector = self._cache.get(text)
        if vector is None:
            vector = self._cache[text] = self.embed([text])[0]
        return vector

    def _request(self, texts: list[str]) -> list[list[float]]:
        body = post_json(
            self._session,
            f"{self.url}/embeddings",
            {"model": self.model, "input": texts},
            key_env=self.key_env,
            timeout=EMBED_TIMEOUT_S,
            service="embedding service",
        )
        try:
            embeddings = [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise TransportError(f"malformed embedding response: {exc}") from exc
        if len(embeddings) != len(texts):
            raise TransportError(f"embedding service returned {len(embeddings)} embeddings for {len(texts)} inputs")
        for values in embeddings:
            if type(values) is not list or not all(map(_finite_number, values)):
                raise TransportError("malformed embedding response: an embedding is not a list of finite numbers")
        return embeddings


def _dense_unit_vector(values: list[float]) -> Vector:
    """``values`` L2-normalized, zero components omitted; the zero vector gives {}."""
    square = sum(v * v for v in values)
    if not sys.float_info.min <= square <= sys.float_info.max:
        # The sum of squares is 0, subnormal or too large for a float: scale by
        # the largest magnitude first. Every other vector keeps the plain
        # formula, and so its bits.
        largest = max(map(abs, values))
        if not largest:
            return {}
        values = [v / largest for v in values]
        square = sum(v * v for v in values)
    norm = math.sqrt(square)
    return {i: v / norm for i, v in enumerate(values) if v}


def _finite_number(value: object) -> bool:
    """Whether a JSON value is a number (a bool is not) with a finite float value; NaN fails every comparison."""
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


class _Namespace(dict[str, tuple[Chunk, Vector]]):
    """A namespace's chunk id -> (chunk, vector) map, never changed once stored.

    The map's first query builds its ``postings``: one bucket of every id at
    most ``_ONE_BUCKET_MAX_CHUNKS`` chunks, else 4-8 components per bucket.
    """

    @cached_property
    def postings(self) -> Postings:
        vectors = {chunk_id: self[chunk_id][1] for chunk_id in sorted(self)}
        if len(vectors) <= _ONE_BUCKET_MAX_CHUNKS:
            return tuple(vectors), array("I", (0, len(vectors))), vectors
        entries = sum(map(len, vectors.values()))
        mask = (1 << (entries // 8).bit_length()) - 1  # 4-8 components per bucket
        buckets: list[list[str]] = [[] for _ in range(mask + 1)]
        for chunk_id, vec in vectors.items():
            for coord in vec:
                bucket = buckets[coord & mask]
                if not bucket or bucket[-1] is not chunk_id:  # once per bucket
                    bucket.append(chunk_id)
        starts = array("I", accumulate(map(len, buckets), initial=0))
        return tuple(chain.from_iterable(buckets)), starts, vectors


class VectorIndex:
    """In-memory vector store with isolated namespaces and exact top-k queries.

    Reads never lock; writes take a lock per index and swap in a new map of
    the namespace, so a read iterates a map that nothing changes. A namespace
    of hashed vectors is scored over the postings of the map the query read,
    which the map's first query builds (one bucket for a small map) and the
    map owns. ``cached_property`` takes no lock from Python 3.12 on, so two
    threads' first queries of a new map may both build them; the two are
    equal and one is kept. A namespace of remote (dense) vectors is scanned.
    Both paths return the same hits with bit-identical scores.
    """

    def __init__(self, embedder: HashingEmbedder | RemoteEmbedder):
        self.embedder = embedder
        self._spaces: dict[str, _Namespace] = {}
        self._lock = threading.Lock()

    def namespaces(self) -> list[str]:
        return sorted(self._spaces)

    def size(self, namespace: str) -> int:
        return len(self._space(namespace))

    def upsert(self, namespace: str, chunks: Sequence[Chunk]) -> int:
        """Insert or replace chunks; returns the number processed."""
        if not chunks:  # makes no namespace, as a snapshot holds none without a chunk
            return 0
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
            # A new map, swapped in whole: a query may be iterating the old one.
            space = _Namespace(self._spaces.get(namespace, {}))
            for chunk, vec in zip(chunks, vectors):
                space[chunk.chunk_id] = (chunk, vec)
            self._spaces[namespace] = space
        return len(chunks)

    def query_top_k(self, namespace: str, query_text: str, k: int) -> list[tuple[str, float]]:
        """Top-k ``(chunk_id, cosine)`` pairs, tie-broken by ascending chunk id."""
        if k < 1:
            raise ValueError("k must be positive")
        space = self._space(namespace)
        query = self.embedder.embed_one(query_text)
        if self.embedder.backend == HashingEmbedder.backend:
            return _postings_top_k(space.postings, query, k)
        return _scan_top_k(space, query, k)

    def get_chunk(self, namespace: str, chunk_id: str) -> Chunk:
        return self.get_entry(namespace, chunk_id)[0]

    def get_entry(self, namespace: str, chunk_id: str) -> tuple[Chunk, Vector]:
        """A stored chunk and its vector."""
        space = self._space(namespace)
        try:
            return space[chunk_id]
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
        header = {"schema": SNAPSHOT_SCHEMA, "dim": self.embedder.dim, "embedder": self.embedder.backend}
        if self.embedder.backend == HashingEmbedder.backend:
            header["hash"] = HASH_FUNCTION
        write_json_lines(path, chain([header], self._snapshot_records()))

    def _snapshot_records(self) -> Iterator[dict]:
        for namespace in self.namespaces():
            space = self._spaces[namespace]
            for chunk_id in sorted(space):
                chunk, vec = space[chunk_id]
                coords = sorted(vec)
                values = map(vec.__getitem__, coords)
                yield {
                    "namespace": namespace,
                    "chunk": chunk_to_record(chunk),
                    "vector": {"idx": _pack(_COORDS, coords), "val": _pack(_VALUES, values)},
                }

    @classmethod
    def load(
        cls,
        path: str | Path,
        namespace: str | None = None,
        embedder_for: Callable[[str, int], HashingEmbedder | RemoteEmbedder] | None = None,
    ) -> "VectorIndex":
        """The index a snapshot holds; with ``namespace``, only that namespace of it.

        ``embedder_for(backend, dim)`` builds the embedder from the checked header
        before any record is decoded (by default a HashingEmbedder; a remote
        store is refused). One of another backend or dim is a SchemaError, as
        the query path is chosen by backend and relies on its vectors, and so
        is a hash store whose header does not name ``HASH_FUNCTION`` as its
        ``hash``: no store written under the previous hash, FNV-1a, does. Every
        record must be a JSON object with a string namespace, but only the
        records loaded are decoded and checked; a chunk id that repeats in a
        namespace, a component that is not finite, or a negative one in a hash
        store (its components are counts over a norm) is a ParseError. A
        ``namespace`` no record carries raises UnknownNamespaceError listing those held.
        """
        with closing(json_lines(path, "snapshot record")) as records:
            _, header = next(records, (0, None))
            if header is None:
                raise ParseError(f"snapshot {path} has no header")
            if header.get("schema") != SNAPSHOT_SCHEMA:
                raise SchemaError(
                    f"snapshot {path} has schema {header.get('schema')!r}, not {SNAPSHOT_SCHEMA!r}; "
                    "rebuild the store with `adagate index`"
                )
            dim = header.get("dim")
            if type(dim) is not int or not 0 < dim <= MAX_DIM:
                raise SchemaError(f"snapshot dim must be an integer between 1 and 2**32, not {dim!r}")
            backend = header.get("embedder")
            if backend not in (HashingEmbedder.backend, RemoteEmbedder.backend):
                raise SchemaError(f"snapshot embedder must be 'hash' or 'remote', not {backend!r}")
            if backend == HashingEmbedder.backend and header.get("hash") != HASH_FUNCTION:
                raise SchemaError(
                    f"snapshot {path} has hash {header.get('hash')!r}, not {HASH_FUNCTION!r}; "
                    "rebuild the store with `adagate index`"
                )
            if embedder_for is not None:
                embedder = embedder_for(backend, dim)
            elif backend == HashingEmbedder.backend:
                embedder = HashingEmbedder(dim)
            else:
                raise SchemaError("snapshot was built with a remote embedder; pass embedder_for to build it")
            if (embedder.backend, embedder.dim) != (backend, dim):
                raise SchemaError(
                    f"snapshot needs a {backend!r} embedder of dim {dim}, "
                    f"not a {embedder.backend!r} one of dim {embedder.dim}"
                )
            index = cls(embedder)
            held: set[str] = set()
            for i, record in records:
                try:
                    name = record["namespace"]
                    if type(name) is not str:
                        raise ValueError(f"namespace must be a string, not {json.dumps(name)}")
                    if namespace is not None and name != namespace:
                        held.add(name)
                        continue
                    chunk = chunk_from_record(record["chunk"])
                    sparse = record["vector"]
                    coords, values = _unpack(_COORDS, sparse["idx"]), _unpack(_VALUES, sparse["val"])
                    if len(coords) != len(values):
                        raise ValueError(f"{len(coords)} coordinates but {len(values)} components")
                    vec = dict(zip(coords, values))
                    if len(vec) != len(coords):
                        raise ValueError("a coordinate repeats")
                    if vec and max(vec) >= dim:
                        raise ValueError(f"coordinate {max(vec)} is outside dim {dim}")
                    # A finite sum is the fast path; finite components may still overflow it.
                    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                        raise ValueError("a component is not finite")
                    if backend == HashingEmbedder.backend and min(values, default=0.0) < 0.0:
                        raise ValueError("a component of a hash vector is negative")
                    space = index._spaces.setdefault(name, _Namespace())
                    if chunk.chunk_id in space:
                        raise ValueError(f"chunk {chunk.chunk_id!r} repeats in namespace {name!r}")
                except (KeyError, TypeError, ValueError, ParseError) as exc:
                    raise ParseError(f"snapshot record {i}: {exc}") from exc
                space[chunk.chunk_id] = (chunk, vec)
        if namespace is not None and namespace not in index._spaces:
            listed = ", ".join(sorted(held)) or "no namespaces"
            raise UnknownNamespaceError(f"unknown namespace {namespace!r} (store holds: {listed})")
        return index


def _pack(typecode: str, values) -> str:
    """Base64 of ``values`` as a little-endian array of ``typecode``."""
    packed = array(typecode, values)
    if _SWAP:
        packed.byteswap()
    return b64encode(packed).decode("ascii")


def _unpack(typecode: str, text: str) -> array:
    """The array of ``typecode`` that ``_pack`` wrote as ``text``; ValueError if it is not one."""
    values = array(typecode, b64decode(text, validate=True))
    if _SWAP:
        values.byteswap()
    return values


def _scan_top_k(space: dict[str, tuple[Chunk, Vector]], query: Vector, k: int) -> list[tuple[str, float]]:
    """Exact cosine scan over every chunk of a namespace."""
    scored = [(chunk_id, cosine(vec, query)) for chunk_id, (_, vec) in space.items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _postings_top_k(postings: Postings, query: Vector, k: int) -> list[tuple[str, float]]:
    """Term-at-a-time scoring, bit-identical to ``_scan_top_k`` for non-negative vectors.

    Each chunk's products are summed from 0.0 in ascending coordinate
    order, exactly as ``cosine`` sums the intersection, so the scores
    are the same floats. A bucket lists every chunk with a coordinate
    of that bucket; a chunk whose vector lacks the query's coordinate
    only shares the bucket and adds nothing. The touched chunks are
    ranked by one sort of their ``(-score, chunk_id)`` pairs, the scan's
    order. A query touches few chunks (1.87 on average over the queries
    of ``retrieval-5k``, most of them one or two), where the sort's fixed
    cost is about half that of ``heapq.nsmallest`` over a generator: 1.9
    against 4.0 µs for one touched chunk and 10.4 against 23.7 for twenty
    (CPython 3.11 on a shared 2-vCPU host). Chunks sharing no coordinate
    with the query score 0.0, below every touched chunk, and fill the
    remaining places in ascending id order, as the scan's sort puts them:
    the first untouched ids of the sorted vector map. The postings are
    those of the one map the query read, so it sees that map whole, even
    while an upsert swaps in another; it takes no lock.

    A namespace of at most ``_ONE_BUCKET_MAX_CHUNKS`` chunks is one bucket
    (mask 0) that lists every id once: each query coordinate reads every
    chunk, and ``.get(coord)`` keeps the real matches, so the sums, the
    order and the scores are the same as over many buckets. Skipping the
    build is cheaper for a map that answers fewer than about ten queries,
    as a per-question pool does.
    """
    ids, starts, vectors = postings
    mask = len(starts) - 2  # one start per bucket, then the end
    acc: dict[str, float] = {}
    for coord in sorted(query):
        qv = query[coord]
        bucket = coord & mask
        for chunk_id in ids[starts[bucket] : starts[bucket + 1]]:
            value = vectors[chunk_id].get(coord)
            if value is not None:  # not just a chunk sharing the bucket
                acc[chunk_id] = acc.get(chunk_id, 0.0) + value * qv
    by_rank = sorted([(-max(-1.0, min(1.0, score)), chunk_id) for chunk_id, score in acc.items()])
    ranked = [(chunk_id, -neg) for neg, chunk_id in by_rank[:k]]
    if len(ranked) < k:
        untouched = (chunk_id for chunk_id in vectors if chunk_id not in acc)  # ascending ids
        ranked += [(chunk_id, 0.0) for chunk_id in islice(untouched, k - len(ranked))]
    return ranked
