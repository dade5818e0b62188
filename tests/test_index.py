from __future__ import annotations

import base64
import json
import math
import random
import re
import struct
import tempfile
import zlib
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adagate.corpus import Chunk
from adagate.errors import DuplicateIdError, ParseError, SchemaError, TransportError, UnknownNamespaceError
from adagate.index import (
    _ONE_BUCKET_MAX_CHUNKS,
    SNAPSHOT_SCHEMA,
    HashingEmbedder,
    RemoteEmbedder,
    VectorIndex,
    _coordinates,
    _Namespace,
    _postings_top_k,
    _unit_vector,
    cosine,
    normalize_tokens,
    token_bytes,
)

from helpers import (
    FakeResponse,
    FakeSession,
    brute_force_top_k,
    build_world,
    densify,
    reference_cosine,
    reference_normalize_tokens,
    reference_unit_vector,
    sized_chunk,
)


def reference_hash_coordinate(h: int, dim: int) -> int:
    # A uint32 hash times the odd multiplier modulo 2**32, scaled to dim.
    return h * 0x9E3779B1 % 2**32 * dim // 2**32


def reference_coordinate(token: str, dim: int) -> int:
    # CRC-32 of the UTF-8 bytes, then the multiply-shift above.
    return reference_hash_coordinate(zlib.crc32(token.encode("utf-8", "surrogatepass")), dim)


def reference_vector(text: str, dim: int) -> dict[int, float]:
    # Independent re-implementation of the documented hash spec. Counts are
    # small integers, so the norm is exact in any summation order.
    counts: dict[int, float] = {}
    for raw in text.lower().split():
        token = re.sub(r"^[^a-z0-9_]+|[^a-z0-9_]+$", "", raw)
        if not token:
            continue
        coord = reference_coordinate(token, dim)
        counts[coord] = counts.get(coord, 0.0) + 1.0
    norm = math.sqrt(sum(v * v for v in counts.values()))
    return {coord: counts[coord] / norm for coord in sorted(counts)}


def test_embed_is_deterministic():
    embedder = HashingEmbedder(dim=64)
    first = embedder.embed(["a b"])[0]
    second = HashingEmbedder(dim=64).embed(["a b"])[0]
    assert first == second


def test_empty_text_embeds_to_zero_vector():
    embedder = HashingEmbedder(dim=64)
    zero = embedder.embed([""])[0]
    assert zero == {}
    assert cosine(zero, embedder.embed_one("anything at all")) == 0.0
    assert cosine(zero, zero) == 0.0


def test_embedder_matches_documented_hash_spec():
    text = "The Quick, brown fox! jumps_over 42 dogs... (and Cats)"
    embedder = HashingEmbedder(dim=256)
    assert list(embedder.embed_one(text).items()) == list(reference_vector(text, 256).items())


@pytest.mark.parametrize(
    ("token", "dim", "coord"),
    [("subj000", 2**20, 480055), ("then", 2**20, 566373), ("mid022", 2**20, 984536), ("mid022", 1000, 938)],
)
def test_coordinates_are_the_same_on_every_host(token, dim, coord):
    # Literals, so a platform or Python version that hashed differently fails here.
    assert reference_coordinate(token, dim) == coord
    assert list(HashingEmbedder(dim).embed_one(token)) == [coord]


# Every hash lies in 0..2**32-1, and dim up to 2**32: the edges of a 64-bit lane.
_hashes = st.lists(st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)))


@given(hashes=_hashes, dim=st.sampled_from([1, 7, 1000, 2**20, 2**32 - 1, 2**32]))
@example(hashes=[], dim=2**32)
@example(hashes=[2**32 - 1, 0] * 3000, dim=2**32)
@example(hashes=[2**32 - 1] * 5, dim=2**32 - 1)
def test_coordinates_of_raw_hashes_are_multiply_shift(hashes, dim):
    expected = [reference_hash_coordinate(h, dim) for h in hashes]
    assert list(_coordinates(array("Q", hashes), dim)) == expected


def _colliding(tokens: set[str], dim: int) -> int:
    """How many of ``tokens`` share their coordinate with another token."""
    counts = Counter(coord for vector in HashingEmbedder(dim).embed(sorted(tokens)) for coord in vector)
    return sum(n for n in counts.values() if n > 1)


def _uniform_colliding_mean_and_sd(n: int, dim: int) -> tuple[float, float]:
    """Mean and standard deviation of ``_colliding`` for n tokens hashed uniformly at random.

    A token is alone with probability (1 - 1/dim)**(n - 1); two given tokens
    are both alone with probability (1 - 1/dim) * (1 - 2/dim)**(n - 2).
    """
    alone = n * (1 - 1 / dim) ** (n - 1)
    pairs_alone = n * (n - 1) * (1 - 1 / dim) * (1 - 2 / dim) ** (n - 2)
    return n - alone, math.sqrt(alone + pairs_alone - alone * alone)


def _fact_tokens(n_questions: int) -> set[str]:
    """The entity, relation and value tokens of every fact in an n-question world."""
    return {
        token
        for i in range(n_questions)
        for token in (f"subj{i:03d}", f"mid{i:03d}", f"obj{i:03d}", f"rel{i:03d}a", f"rel{i:03d}b")
    }


def test_fact_token_names_follow_the_generator():
    from adagate.oracle import FACT_PATTERN
    from adagate.synthetic import WorldSpec, generate_world

    facts = {
        part
        for example in generate_world(WorldSpec(n_questions=500, seed=7))
        for _, sentences in example.paragraphs
        for sentence in sentences
        for fact in FACT_PATTERN.findall(sentence)
        for part in fact
    }
    assert facts == _fact_tokens(500)


@pytest.mark.parametrize("n_questions", [500, 7405])
def test_fact_tokens_collide_no_more_than_uniform_hashing_allows(n_questions):
    # The generator's names are sequential (subj000, mid022, rel072b), which
    # the low bits of FNV-1a sent into families: 76 and 2,342 colliding tokens.
    # By Cantelli's inequality, uniform hashing exceeds its mean by 6 standard
    # deviations with probability at most 1/37: 26.6 of 2,500 tokens at 500
    # questions (mean 6.0), and 1,579.4 of 37,025 at 7,405 (mean 1,284.5).
    tokens = _fact_tokens(n_questions)
    mean, sd = _uniform_colliding_mean_and_sd(len(tokens), 2**20)
    assert _colliding(tokens, 2**20) <= mean + 6 * sd


# Unicode whitespace that str.split() and the regex \s both split on, edge
# characters that lowercase or encode oddly (lone surrogates among them), and
# plain token characters.
_ODD_CHARS = "\x1c\x1d\x1e\x1f\x85\xa0\u3000 \t\nİßé€𝄞.,!?'-()\x00\ud800\udfff"
_chars = st.one_of(st.characters(), st.sampled_from(_ODD_CHARS), st.sampled_from("abxyz019_ABZ"))
_texts = st.one_of(
    st.text(_chars, max_size=60),
    st.text(st.sampled_from(" .,!?-()'\u3000"), max_size=8),  # empty or punctuation only
    st.text(st.sampled_from("ab_é"), min_size=130, max_size=300),  # one token, often past 255 bytes
)
# Many texts in one call, some of them repeated.
_filler = st.integers(min_value=0, max_value=300)
_DIMS = [1, 7, 64, 256, 1000, 2**20, 2**23, 2**24, 2**32]


@settings(deadline=None)
@given(texts=st.lists(_texts, max_size=20), filler=_filler, repeat=st.booleans(), dim=st.sampled_from(_DIMS))
@example(texts=["a" * 300 + " b\xa0c", "é" * 130, "", "..."], filler=40, repeat=True, dim=2**20)
@example(texts=["The Quick, brown fox!"], filler=260, repeat=True, dim=1000)
@example(texts=["x " * 31, "y " * 32], filler=0, repeat=False, dim=2**24)
@example(texts=["x\ud800y " * 40, "\udfff"], filler=0, repeat=False, dim=2**20)  # lone surrogates
@example(texts=[" ".join(f"w{i % 1500}" for i in range(6000))], filler=0, repeat=False, dim=2**32)  # 6,000 tokens
def test_embed_batch_equals_spec_exactly(texts, filler, repeat, dim):
    batch = texts + [f"f{i} x{i % 7}y" for i in range(filler)]
    if repeat and batch:
        batch.insert(len(batch) // 2, batch[0])
    expected = [list(reference_vector(text, dim).items()) for text in batch]
    assert [list(vec.items()) for vec in HashingEmbedder(dim).embed(batch)] == expected
    single = HashingEmbedder(dim)
    assert [list(single.embed_one(text).items()) for text in batch[:4]] == expected[:4]


@given(st.text(_chars, max_size=80))
def test_normalize_tokens_equals_character_loop(text):
    assert normalize_tokens(text) == reference_normalize_tokens(text)


# All 128 ASCII code points, weighted toward the bytes the ASCII byte path
# treats specially: whitespace (\x1c-\x1f are whitespace only to ``str``),
# A-Z, which it folds, edge punctuation, which it strips, and [a-z0-9_].
_ascii_chars = st.one_of(
    st.sampled_from([chr(code) for code in range(128)]),
    st.sampled_from("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "),
    st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ[]~.,!?-"),
    st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789_"),
)


@settings(deadline=None)
@given(texts=st.lists(st.text(_ascii_chars, max_size=60), min_size=1, max_size=8))
@example(texts=["Straße", "İx", "a\xa0b", "x\ud800y"])  # not ASCII: the reference path
def test_byte_path_equals_the_reference_tokens_and_vectors(texts):
    for text in texts:
        assert token_bytes(text) == [t.encode("utf-8", "surrogatepass") for t in reference_normalize_tokens(text)]
    expected = [list(reference_vector(text, 2**20).items()) for text in texts]
    assert [list(vec.items()) for vec in HashingEmbedder(2**20).embed(texts)] == expected
    single = HashingEmbedder(1000)  # a dim that is not a power of two
    assert [list(single.embed_one(text).items()) for text in texts] == [
        list(reference_vector(text, 1000).items()) for text in texts
    ]


# Coordinates that repeat often, and some anywhere in a uint32; or up to 400
# draws from a few coordinates, so that counts grow large.
_coords = st.one_of(
    st.lists(st.one_of(st.integers(0, 12), st.integers(0, 2**32 - 1)), max_size=80),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4).flatmap(
        lambda few: st.lists(st.sampled_from(few), max_size=400)
    ),
)


@given(_coords)
@example([])
@example([7, 3, 7, 7, 3, 9])
def test_unit_vector_equals_the_comprehension_reference(coords):
    def bits(vector):
        return [(coord, value.hex()) for coord, value in vector.items()]

    assert bits(_unit_vector(coords)) == bits(reference_unit_vector(coords))


def test_unit_norm_after_embedding():
    embedder = HashingEmbedder(dim=32)
    vec = embedder.embed_one("a b c a b a collision heavy text a b c")
    assert math.sqrt(sum(v * v for v in vec.values())) == pytest.approx(1.0, abs=1e-12)


def test_upsert_counts_and_idempotent_replace():
    index = VectorIndex(HashingEmbedder(dim=128))
    chunks = [sized_chunk(f"c{i}", 12) for i in range(20)]
    assert index.upsert("clean", chunks) == 20
    assert index.size("clean") == 20
    assert index.upsert("clean", chunks) == 20
    assert index.size("clean") == 20


def test_upsert_duplicate_ids_in_one_batch():
    index = VectorIndex(HashingEmbedder(dim=128))
    chunks = [sized_chunk("dup", 10), sized_chunk("dup", 10), sized_chunk("ok", 10)]
    with pytest.raises(DuplicateIdError) as exc:
        index.upsert("clean", chunks)
    assert str(exc.value) == "duplicate chunk ids in one batch: dup"


def test_query_exact_text_scores_one():
    index = VectorIndex(HashingEmbedder(dim=512))
    chunks = [sized_chunk(f"c{i}", 15) for i in range(5)]
    index.upsert("clean", chunks)
    chunk_id, score = index.query_top_k("clean", chunks[2].text, 3)[0]
    assert chunk_id == "c2"
    assert score == pytest.approx(1.0, abs=1e-9)


def test_query_of_no_hits_is_refused():
    index = VectorIndex(HashingEmbedder(dim=512))
    index.upsert("clean", [sized_chunk("c0", 15)])
    with pytest.raises(ValueError) as exc:
        index.query_top_k("clean", "c0w1", 0)
    assert str(exc.value) == "k must be positive"


def test_top_k_matches_brute_force_scan():
    embedder = HashingEmbedder(dim=64)  # small dim provokes collisions on purpose
    index = VectorIndex(embedder)
    chunks = [sized_chunk(f"c{i}", 10 + i) for i in range(5)]
    index.upsert("ns", chunks)
    for query in ("c0w1 c0w2", "title c3", "c4w0 c1w0 shared", "nothing matches here"):
        hits = index.query_top_k("ns", query, 3)
        expected = brute_force_top_k(embedder, chunks, query, 3)
        assert hits == [
            (cid, pytest.approx(score)) for cid, score in expected
        ]


def test_hits_sorted_by_score_then_id():
    index = VectorIndex(HashingEmbedder(dim=256))
    # Identical text means identical vectors and therefore tied scores.
    twin_a = Chunk("b-twin", "same text", "same words", "ex")
    twin_b = Chunk("a-twin", "same text", "same words", "ex")
    index.upsert("ns", [twin_a, twin_b])
    hits = index.query_top_k("ns", "same words", 2)
    assert [chunk_id for chunk_id, _ in hits] == ["a-twin", "b-twin"]
    assert hits[0][1] == hits[1][1]


def test_k_larger_than_index_returns_all_sorted():
    index = VectorIndex(HashingEmbedder(dim=128))
    chunks = [sized_chunk(f"c{i}", 10) for i in range(3)]
    index.upsert("ns", chunks)
    hits = index.query_top_k("ns", chunks[0].text, 50)
    assert len(hits) == 3
    scores = [score for _, score in hits]
    assert scores == sorted(scores, reverse=True)


def test_namespaces_are_disjoint():
    index = VectorIndex(HashingEmbedder(dim=128))
    index.upsert("a", [sized_chunk("c0", 10)])
    index.upsert("b", [sized_chunk("c1", 10)])
    assert index.size("a") == 1
    assert index.size("b") == 1
    assert [chunk_id for chunk_id, _ in index.query_top_k("a", "anything", 5)] == ["c0"]


def test_unknown_namespace_raises():
    index = VectorIndex(HashingEmbedder(dim=128))
    with pytest.raises(UnknownNamespaceError):
        index.query_top_k("ghost", "q", 1)


def test_snapshot_roundtrip(tmp_path):
    index = VectorIndex(HashingEmbedder(dim=256))
    chunks = [sized_chunk(f"c{i}", 12) for i in range(6)]
    index.upsert("clean", chunks[:4])
    # An empty batch makes no namespace: a snapshot holds none without a chunk.
    assert index.upsert("empty", []) == 0
    index.upsert("noise", chunks[4:])
    path = tmp_path / "store.jsonl"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded.namespaces() == index.namespaces() == ["clean", "noise"]
    for query in ("c0w0 c0w1", "title c5"):
        assert loaded.query_top_k("clean", query, 3) == index.query_top_k("clean", query, 3)
    assert loaded.get_chunk("noise", "c5") == chunks[5]


def _assert_same_entries(loaded: VectorIndex, index: VectorIndex, namespaces: list[str] | None = None) -> None:
    """Same chunks and vectors in ``namespaces`` (all of them by default), each vector with the same keys in order."""
    if namespaces is None:
        assert loaded.namespaces() == index.namespaces()
        namespaces = index.namespaces()
    for namespace in namespaces:
        assert loaded.chunks(namespace) == index.chunks(namespace)
        for chunk in index.chunks(namespace):
            vector = index.get_entry(namespace, chunk.chunk_id)[1]
            restored = loaded.get_entry(namespace, chunk.chunk_id)[1]
            assert restored == vector
            assert [(c, v.hex()) for c, v in restored.items()] == [(c, v.hex()) for c, v in vector.items()]


@pytest.mark.parametrize("dim", [2**20, 2**32])
def test_hash_snapshot_round_trip_is_bit_identical(tmp_path, dim):
    index = VectorIndex(HashingEmbedder(dim=dim))
    # Repeated tokens give components other than 1/sqrt(n).
    index.upsert("clean", [Chunk("a", "page", "alpha alpha beta gamma gamma gamma", "ex"), sized_chunk("b", 9)])
    index.upsert("noise", [Chunk("c", "other", "", "ex")])
    assert len(set(index.get_entry("clean", "a")[1].values())) == 3
    path = tmp_path / "store.jsonl"
    index.save(path)
    loaded = VectorIndex.load(path)
    _assert_same_entries(loaded, index)
    assert loaded.embedder.dim == dim


def test_loading_one_namespace_gives_the_entries_of_a_full_load(tmp_path):
    index = VectorIndex(HashingEmbedder(dim=2**20))
    index.upsert("clean", [Chunk("a", "page", "alpha alpha beta gamma", "ex"), sized_chunk("b", 9)])
    index.upsert("noise", [sized_chunk(f"n{i}", 6 + i) for i in range(5)] + [Chunk("z", "other", "", "ex")])
    index.upsert("redundancy", [sized_chunk("r", 7)])
    path = tmp_path / "store.jsonl"
    index.save(path)
    full = VectorIndex.load(path)
    for namespace in index.namespaces():
        only = VectorIndex.load(path, namespace=namespace)
        assert only.namespaces() == [namespace]
        _assert_same_entries(only, full, [namespace])


def test_loading_one_namespace_decodes_only_its_records(tmp_path):
    index = VectorIndex(HashingEmbedder(dim=64))
    index.upsert("clean", [sized_chunk("a", 8)])
    index.upsert("noise", [sized_chunk("b", 8)])
    path = tmp_path / "store.jsonl"
    index.save(path)
    header, clean, noise = path.read_text().splitlines()
    damaged = json.loads(clean)
    damaged["vector"] = {
        "idx": base64.b64encode(struct.pack("<2I", 5, 5)).decode(),
        "val": base64.b64encode(struct.pack("<2d", 0.6, 0.8)).decode(),
    }
    path.write_text("\n".join([header, json.dumps(damaged), noise]) + "\n")
    assert VectorIndex.load(path, namespace="noise").chunks("noise") == index.chunks("noise")
    for namespace in (None, "clean"):
        with pytest.raises(ParseError, match="snapshot record 1: a coordinate repeats"):
            VectorIndex.load(path, namespace=namespace)
    # Every record is still read as far as its namespace.
    for line in ("[1]", json.dumps({key: value for key, value in json.loads(clean).items() if key != "namespace"})):
        path.write_text("\n".join([header, line, noise]) + "\n")
        with pytest.raises(ParseError, match="snapshot record 1"):
            VectorIndex.load(path, namespace="noise")


def test_loading_a_namespace_the_store_lacks_names_those_it_holds(tmp_path):
    path = tmp_path / "store.jsonl"
    index = VectorIndex(HashingEmbedder(dim=64))
    index.save(path)
    with pytest.raises(UnknownNamespaceError, match=r"^unknown namespace 'nope' \(store holds: no namespaces\)$"):
        VectorIndex.load(path, namespace="nope")
    index.upsert("noise", [sized_chunk("b", 8)])
    index.upsert("clean", [sized_chunk("a", 8), sized_chunk("c", 8)])
    index.save(path)
    with pytest.raises(UnknownNamespaceError, match=r"^unknown namespace 'nope' \(store holds: clean, noise\)$"):
        VectorIndex.load(path, namespace="nope")


class _TinyEmbeddingSession:
    """Embeddings service double: dense vectors with negative and subnormal components."""

    def post(self, url, json=None, headers=None, timeout=None):
        data = [
            {"embedding": [1.0, -1e-310, 0.0, 5e-324, -0.75 * len(text), -2.5e-308]} for text in json["input"]
        ]
        return FakeResponse(200, {"data": data})


def test_remote_snapshot_round_trip_is_bit_identical(tmp_path):
    embedder = RemoteEmbedder(url="http://svc", dim=6, session=_TinyEmbeddingSession())
    index = VectorIndex(embedder)
    index.upsert("ns", [sized_chunk("a", 4), sized_chunk("bb", 7)])
    vector = index.get_entry("ns", "a")[1]
    assert list(vector) == [0, 1, 3, 4, 5]
    assert any(0 < abs(v) < 2.2250738585072014e-308 for v in vector.values())  # subnormal
    path = tmp_path / "store.jsonl"
    index.save(path)
    _assert_same_entries(VectorIndex.load(path, embedder_for=lambda backend, dim: embedder), index)


def test_snapshot_schema_and_dim_checks(tmp_path):
    path = tmp_path / "store.jsonl"
    for header, message in [
        ({"schema": "other@9", "dim": 4}, "'other@9'"),
        ({"schema": "index@1", "dim": 64}, "'index@1'.*rebuild the store with `adagate index`"),  # number lists
        ({"schema": SNAPSHOT_SCHEMA, "dim": 2**32 + 1}, "dim must be"),  # a coordinate outgrows a uint32
        ({"schema": SNAPSHOT_SCHEMA, "dim": 4, "embedder": "memory"}, "embedder must be 'hash' or 'remote'"),
        # A hash store must name its coordinate function; those before crc32-ms named none.
        ({"schema": SNAPSHOT_SCHEMA, "dim": 64}, "hash None, not 'crc32-ms'; rebuild the store with `adagate index`"),
        ({"schema": SNAPSHOT_SCHEMA, "dim": 64, "hash": "fnv1a64"}, "has hash 'fnv1a64', not 'crc32-ms'"),
    ]:
        path.write_text(json.dumps({"embedder": "hash", **header}) + "\n")
        with pytest.raises(SchemaError, match=message):
            VectorIndex.load(path)
    index = VectorIndex(HashingEmbedder(dim=64))
    index.upsert("ns", [sized_chunk("c", 8)])
    index.save(path)
    asked = []

    def embedder_for(backend, dim):
        asked.append((backend, dim))
        return HashingEmbedder(dim=dim)

    assert VectorIndex.load(path, embedder_for=embedder_for).chunks("ns") == index.chunks("ns")
    assert asked == [("hash", 64)]
    with pytest.raises(SchemaError, match="^snapshot needs a 'hash' embedder of dim 64, not a 'hash' one of dim 32$"):
        VectorIndex.load(path, embedder_for=lambda backend, dim: HashingEmbedder(dim=32))
    remote = RemoteEmbedder(url="http://svc", dim=64, session=FakeSession([]))
    with pytest.raises(SchemaError, match="not a 'remote' one"):  # the query path depends on the backend
        VectorIndex.load(path, embedder_for=lambda backend, dim: remote)


def test_remote_snapshot_needs_its_embedder(tmp_path):
    path = tmp_path / "store.jsonl"
    index = VectorIndex(RemoteEmbedder(url="http://svc", dim=6, session=_TinyEmbeddingSession()))
    index.upsert("ns", [sized_chunk("a", 4)])
    index.save(path)
    with pytest.raises(SchemaError, match="remote embedder; pass embedder_for to build it"):
        VectorIndex.load(path)


def test_get_entry_of_an_id_the_namespace_lacks_is_an_unknown_namespace_error():
    index = VectorIndex(HashingEmbedder(dim=64))
    index.upsert("ns", [sized_chunk("a", 4)])
    with pytest.raises(UnknownNamespaceError, match="^chunk 'b' not in namespace 'ns'$"):
        index.get_entry("ns", "b")


def test_snapshot_read_errors_keep_their_classes(tmp_path):
    path = tmp_path / "store.jsonl"
    for text in ("", "\n", "[1]\n"):  # no header, or one that is not an object
        path.write_text(text)
        with pytest.raises(ParseError):
            VectorIndex.load(path)
    index = VectorIndex(HashingEmbedder(dim=64))
    index.upsert("ns", [sized_chunk("a", 8), sized_chunk("b", 8)])
    index.save(path)
    header, first, second = path.read_text().splitlines()
    record = json.loads(second)
    packed = record["vector"]
    one_coordinate = base64.b64encode(struct.pack("<I", 3)).decode()
    broken_records = [
        {"vec" if key == "vector" else key: value for key, value in record.items()},
        {**record, "vector": {**packed, "idx": "not base64!"}},
        {**record, "vector": {**packed, "idx": one_coordinate}},  # fewer coordinates than components
        {**record, "vector": {**packed, "val": "AAAAAAAA"}},  # 6 bytes: not a whole float64
        {**record, "vector": {**packed, "idx": [3, 5]}},  # the number lists of the previous schema
        # str() would read the namespace 5 as "5" and ["ns"] as "['ns']".
        *({**record, "namespace": namespace} for namespace in (5, ["ns"], None)),
    ]
    two_components = base64.b64encode(struct.pack("<2d", 0.6, 0.8)).decode()
    for coords in ((5, 5), (3, 64)):  # a repeated coordinate; one at the header dim
        idx = base64.b64encode(struct.pack("<2I", *coords)).decode()
        broken_records.append({**record, "vector": {"idx": idx, "val": two_components}})
    for broken in broken_records:
        path.write_text("\n".join([header, first, json.dumps(broken)]) + "\n")
        for only in (None, "ns"):  # the whole store, and the namespace "ns" alone
            with pytest.raises(ParseError, match="snapshot record 2"):
                VectorIndex.load(path, namespace=only)
    empty = {**record, "vector": {"idx": "", "val": ""}}
    path.write_text("\n".join([header, first, json.dumps(empty)]) + "\n")
    assert VectorIndex.load(path).size("ns") == 2
    # save never writes a chunk id twice in one namespace, so a snapshot that does is damaged.
    repeated = {**record, "chunk": {**record["chunk"], "chunk_id": "a"}}
    path.write_text("\n".join([header, first, json.dumps(repeated)]) + "\n")
    for only in (None, "ns"):
        with pytest.raises(ParseError, match="^snapshot record 2: chunk 'a' repeats in namespace 'ns'$"):
            VectorIndex.load(path, namespace=only)


def _with_components(line: str, change) -> str:
    """A snapshot record line whose float64 components are ``change(components)``."""
    record = json.loads(line)
    raw = base64.b64decode(record["vector"]["val"])
    values = change(list(struct.unpack(f"<{len(raw) // 8}d", raw)))
    record["vector"]["val"] = base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()
    return json.dumps(record)


# A NaN would score 1.0 against every query sharing its coordinate (min(1.0, nan) is 1.0), and a
# negated hash vector would rank above untouched chunks on the postings path but last on a scan.
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda values: [math.nan, *values[1:]], "a component is not finite"),
        (lambda values: [*values[:-1], -math.inf], "a component is not finite"),
        (lambda values: [-v for v in values], "a component of a hash vector is negative"),
    ],
    ids=["nan", "infinity", "negated"],
)
def test_a_hash_component_no_vector_can_hold_is_a_parse_error(tmp_path, change, message):
    path = tmp_path / "store.jsonl"
    index = VectorIndex(HashingEmbedder(dim=2**20))
    index.upsert("ns", [sized_chunk(chunk_id, 6) for chunk_id in "abc"])
    index.save(path)
    header, first, second, third = path.read_text().splitlines()
    path.write_text("\n".join([header, first, _with_components(second, change), third]) + "\n")
    for only in (None, "ns"):
        with pytest.raises(ParseError, match=f"^snapshot record 2: {message}$"):
            VectorIndex.load(path, namespace=only)


def test_a_remote_store_keeps_finite_components_whatever_their_sum_but_no_nan(tmp_path):
    path = tmp_path / "store.jsonl"
    embedder = RemoteEmbedder(url="http://svc", dim=6, session=_TinyEmbeddingSession())
    index = VectorIndex(embedder)
    index.upsert("ns", [sized_chunk("a", 4)])
    index.save(path)
    header, record = path.read_text().splitlines()
    path.write_text(header + "\n" + _with_components(record, lambda values: [1.5e308] * len(values)) + "\n")
    loaded = VectorIndex.load(path, embedder_for=lambda backend, dim: embedder)
    assert list(loaded.get_entry("ns", "a")[1].values()) == [1.5e308] * 5
    path.write_text(header + "\n" + _with_components(record, lambda values: [*values[:-1], math.nan]) + "\n")
    with pytest.raises(ParseError, match="^snapshot record 1: a component is not finite$"):
        VectorIndex.load(path, embedder_for=lambda backend, dim: embedder)


def test_remote_embedder_normalizes_and_caches():
    session = FakeSession(
        [FakeResponse(200, {"data": [{"embedding": [3.0, 4.0, 0.0]}]})]
    )
    embedder = RemoteEmbedder(url="http://svc/v1", dim=3, session=session)
    vec = embedder.embed_one("hello")
    assert densify(vec, 3) == pytest.approx([0.6, 0.8, 0.0])
    assert embedder.embed_one("hello") == vec
    assert len(session.calls) == 1
    assert session.calls[0]["url"] == "http://svc/v1/embeddings"


def _remote_reply(values: list[float], dim: int) -> dict[int, float]:
    """The vector ``RemoteEmbedder`` stores for one embedding reply of ``values``."""
    session = FakeSession([FakeResponse(200, {"data": [{"embedding": values}]})])
    return RemoteEmbedder(url="http://svc", dim=dim, session=session).embed_one("x")


@pytest.mark.parametrize(
    "values, expected",
    [
        ([1e200, 1e200, 0.0], {0: 0.5**0.5, 1: 0.5**0.5}),  # the sum of squares overflows
        ([-1e300, 0.0, 3e300], {0: -(0.1**0.5), 2: 3 * 0.1**0.5}),
        ([10**300, 10**300, 0], {0: 0.5**0.5, 1: 0.5**0.5}),  # JSON integers past the float range when squared
        ([1e-200, 0.0, 0.0], {0: 1.0}),  # the sum of squares underflows to 0
        ([1e-170, 1e-170, 0.0], {0: 0.5**0.5, 1: 0.5**0.5}),  # ... or to a subnormal
        ([0.0, 5e-324, -5e-324], {1: 0.5**0.5, 2: -(0.5**0.5)}),
        ([0.0, 0.0, 0.0], {}),
    ],
)
def test_remote_embedder_normalizes_a_reply_whose_sum_of_squares_is_not_a_normal_float(values, expected):
    vector = _remote_reply(values, 3)
    assert list(vector) == list(expected)
    assert list(vector.values()) == pytest.approx(list(expected.values()), rel=1e-15)


def test_remote_embedder_keeps_the_plain_formula_for_an_ordinary_reply():
    rng = random.Random(20)
    for _ in range(300):
        scale = 10.0 ** rng.randint(-150, 150)
        values = [rng.choice([0.0, 5e-324, rng.uniform(-1, 1) * scale]) for _ in range(8)] + [scale]
        square = sum(v * v for v in values)
        assert 2.2250738585072014e-308 <= square <= 1.7976931348623157e308
        norm = math.sqrt(square)
        expected = {i: (v / norm).hex() for i, v in enumerate(values) if v}
        assert {i: v.hex() for i, v in _remote_reply(values, 9).items()} == expected


def test_remote_embedder_retries_then_surfaces_transport_error():
    session = FakeSession([FakeResponse(503), FakeResponse(503), FakeResponse(503)])
    embedder = RemoteEmbedder(url="http://svc", dim=2, session=session)
    with pytest.raises(TransportError) as exc:
        embedder.embed_one("x")
    assert len(session.calls) == 3
    assert str(exc.value) == "embedding service unreachable after 3 attempts: embedding service returned 503"


@pytest.mark.parametrize(
    "body, message",
    [
        ({"data": [{"vector": [1.0, 2.0]}]}, "malformed embedding response"),
        ({"embeddings": []}, "malformed embedding response"),
        ({"data": [{"embedding": [1.0, 2.0]}]}, "returned 1 embeddings for 2 inputs"),
        *(
            ({"data": [{"embedding": [component, 1.0]}, {"embedding": [0.5, 0.5]}]}, "not a list of finite numbers")
            for component in (math.nan, math.inf, -math.inf, None, "0.5", True, [0.5])
        ),
        ({"data": [{"embedding": 0.5}, {"embedding": [0.5, 0.5]}]}, "not a list of finite numbers"),
    ],
    ids=["no-embedding", "no-data", "too-few", "nan", "inf", "-inf", "null", "string", "true", "list", "not-a-list"],
)
def test_remote_embedder_rejects_a_malformed_body_without_retrying(body, message):
    session = FakeSession([FakeResponse(200, body), FakeResponse(200, body)])
    embedder = RemoteEmbedder(url="http://svc", dim=2, session=session)
    with pytest.raises(TransportError, match=message):
        embedder.embed(["x", "y"])
    assert len(session.calls) == 1


def test_remote_embedder_rejects_wrong_dim():
    session = FakeSession([FakeResponse(200, {"data": [{"embedding": [1.0, 2.0]}]})])
    embedder = RemoteEmbedder(url="http://svc", dim=3, session=session)
    with pytest.raises(TransportError):
        embedder.embed_one("x")


# A small vocabulary makes shared coordinates, equal texts (tied scores) and,
# at dim 64, hash collisions common; "unseen" words appear in no chunk.
_VOCAB = ["alpha", "beta", "gamma", "delta", "born", "in", "the", "city", "x1", "x2", "x3", "x4"]
_words = st.lists(st.sampled_from(_VOCAB), max_size=6).map(" ".join)
_query_words = st.lists(st.sampled_from(_VOCAB + ["unseen", "nowhere"]), max_size=6).map(" ".join)


# Each namespace property runs with both postings layouts: at the default
# limit its namespaces are one bucket, and at limit 0 every one is bucketed.
_LAYOUTS = pytest.mark.parametrize("one_bucket_max", [_ONE_BUCKET_MAX_CHUNKS, 0], ids=["limit-default", "limit-0"])


@_LAYOUTS
@settings(max_examples=150, deadline=None)
@given(
    bodies=st.lists(_words, min_size=1, max_size=25),
    order=st.randoms(use_true_random=False),
    queries=st.lists(_query_words, min_size=1, max_size=4),
    dim=st.sampled_from([64, 2**20]),
    k=st.sampled_from([1, 3, 20]),
    replaced=st.integers(min_value=0),
    new_body=_words,
)
def test_query_top_k_equals_brute_force_exactly(one_bucket_max, bodies, order, queries, dim, k, replaced, new_body):
    # Insertion order differs from id order, so the zero-score fill must sort.
    ids = [f"c{i:02d}" for i in range(len(bodies))]
    order.shuffle(ids)
    chunks = [Chunk(cid, "page", body, "ex") for cid, body in zip(ids, bodies)]
    embedder = HashingEmbedder(dim=dim)
    index = VectorIndex(embedder)
    index.upsert("ns", chunks)
    # A chunk's own text can sum past 1.0 by rounding, so the clamp matters.
    queries = queries + ["", chunks[0].text]
    with mock.patch("adagate.index._ONE_BUCKET_MAX_CHUNKS", one_bucket_max):
        for query in queries:
            assert index.query_top_k("ns", query, k) == brute_force_top_k(embedder, chunks, query, k)
        # Re-upserting an id with new text must drop the postings built above.
        j = replaced % len(chunks)
        chunks[j] = Chunk(chunks[j].chunk_id, "page", new_body + " fresh words", "ex")
        index.upsert("ns", [chunks[j]])
        for query in queries + ["fresh"]:
            assert index.query_top_k("ns", query, k) == brute_force_top_k(embedder, chunks, query, k)


def test_loaded_snapshot_matches_brute_force_exactly():
    examples, chunks, index = build_world(20)
    queries = [e.question for e in examples] + [f"{e.gold_answer} born in" for e in examples] + ["", "unseen"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        index.save(path)
        loaded = VectorIndex.load(path)
    for query in queries:
        for k in (1, 3, 20):
            expected = brute_force_top_k(loaded.embedder, chunks, query, k)
            assert loaded.query_top_k("clean", query, k) == expected
            assert index.query_top_k("clean", query, k) == expected


class _SignedEmbeddingSession:
    """Embeddings service double: dense vectors with negative parts; zero for "blank" texts."""

    def __init__(self, dim: int):
        self.dim = dim

    def post(self, url, json=None, headers=None, timeout=None):
        data = []
        for text in json["input"]:
            seed = 0 if "blank" in text else sum(text.encode("utf-8"))
            data.append({"embedding": [float((seed * (i + 3)) % 7 - 3) if seed else 0.0 for i in range(self.dim)]})
        return FakeResponse(200, {"data": data})


def test_remote_index_keeps_exact_scan_with_negative_components():
    embedder = RemoteEmbedder(url="http://svc", dim=6, session=_SignedEmbeddingSession(6))
    index = VectorIndex(embedder)
    chunks = [sized_chunk(f"c{i}", 4 + i) for i in range(12)] + [Chunk("c99", "blank", "blank", "ex")]
    index.upsert("ns", chunks)
    for query in ("c0w1", "title c3 c5w2", "something else", ""):
        expected = brute_force_top_k(embedder, chunks, query, len(chunks))
        assert index.query_top_k("ns", query, len(chunks)) == expected
        assert index.query_top_k("ns", query, 3) == expected[:3]
    # The zero-vector chunk outranks every negative score, which a postings
    # walk that appends untouched chunks last would get wrong.
    ranked = brute_force_top_k(embedder, chunks, "c0w1", len(chunks))
    assert ranked[-1][1] < 0 and ("c99", 0.0) in ranked[:-1]


def test_queries_racing_upserts_see_one_consistent_namespace():
    import sys
    import threading

    embedder = HashingEmbedder(dim=2**20)
    index = VectorIndex(embedder)
    old = [sized_chunk(f"c{i}", 12) for i in range(40)]
    new = [Chunk(c.chunk_id, "fresh", f"fresh {c.chunk_id}w0 {c.chunk_id}w1", "ex") for c in old]
    index.upsert("ns", old)
    queries = [c.text for c in old[:6]] + ["fresh c3w0", "title c5 c7w1", ""]
    allowed = {
        q: {tuple(brute_force_top_k(embedder, old, q, 3)), tuple(brute_force_top_k(embedder, new, q, 3))}
        for q in queries
    }
    errors: list[Exception] = []
    readers_done = threading.Event()

    def write():
        i = 0
        while not readers_done.is_set():
            index.upsert("ns", new if i % 2 == 0 else old)
            i += 1

    def read():
        try:
            for _ in range(100):
                for q in queries:
                    hits = tuple(index.query_top_k("ns", q, 3))
                    if hits not in allowed[q]:
                        raise AssertionError(f"{q!r} saw a mixed namespace: {hits}")
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(6)]
        threads = [writer] + readers
        for t in threads:
            t.start()
        for t in readers:
            t.join(timeout=60)
        readers_done.set()
        writer.join(timeout=60)
    finally:
        readers_done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_dense_queries_racing_upserts_of_new_ids_see_one_consistent_namespace():
    import sys
    import threading

    embedder = RemoteEmbedder(url="http://svc", dim=8, session=_SignedEmbeddingSession(8))
    index = VectorIndex(embedder)
    base = [sized_chunk(f"c{i:03d}", 4 + i % 5) for i in range(200)]
    batches = [[sized_chunk(f"n{b:02d}x{i}", 3 + i) for i in range(4)] for b in range(25)]
    index.upsert("ns", base)
    queries = ["c001w1", "title n03x2 n07x1w0", "something else"]
    allowed: dict[str, set] = {q: set() for q in queries}
    for j in range(len(batches) + 1):
        chunks = base + [chunk for batch in batches[:j] for chunk in batch]
        for q in queries:
            allowed[q].add(tuple(brute_force_top_k(embedder, chunks, q, 5)))
    errors: list[Exception] = []
    reading = threading.Barrier(5)
    written = threading.Event()

    def write():
        reading.wait()
        for batch in batches:
            index.upsert("ns", batch)
        written.set()

    def read():
        try:
            reading.wait()
            while not written.is_set():
                for q in queries:
                    hits = tuple(index.query_top_k("ns", q, 5))
                    if hits not in allowed[q]:
                        raise AssertionError(f"{q!r} saw a mixed namespace: {hits}")
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        written.set()
        reading.abort()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert index.size("ns") == 300


# Coordinates up to 2**20 make a set's iteration order differ from ascending
# order; mixed signs and magnitudes make the rounding depend on that order.
_components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False).filter(bool)
_sparse = st.dictionaries(st.integers(min_value=0, max_value=2**20 - 1), _components, max_size=24)


@settings(max_examples=150, deadline=None)
@given(a=_sparse, b=_sparse, shared=_sparse, order=st.randoms(use_true_random=False))
@example(a={}, b={}, shared={}, order=None)  # zero vectors
@example(a={7: 0.5}, b={9: 0.5}, shared={}, order=None)  # disjoint
def test_cosine_equals_ascending_reference_sum(a, b, shared, order):
    b = {**b, **{coord: value * 0.75 for coord, value in shared.items()}}
    a = {**a, **shared}
    if order is not None:  # keys in no particular order
        a = dict(order.sample(sorted(a.items()), len(a)))
        b = dict(order.sample(sorted(b.items()), len(b)))
    assert cosine(a, b) == reference_cosine(a, b)
    assert cosine(b, a) == reference_cosine(a, b)
    assert cosine(a, a) == reference_cosine(a, a)  # identical vectors
    assert cosine(a, {}) == cosine({}, a) == 0.0


class _CountedId(str):
    """A chunk id that counts its ordering comparisons."""

    comparisons = 0

    def __lt__(self, other):
        _CountedId.comparisons += 1
        return str.__lt__(self, other)


def test_query_touching_one_of_many_chunks_fills_from_the_smallest_untouched_ids():
    # Inserted in descending id order; only c0001 holds the query's token.
    chunks = [Chunk(_CountedId(f"c{i:04d}"), "page", f"c{i:04d}w0 c{i:04d}w1", "ex") for i in range(2_000)]
    chunks.reverse()
    embedder = HashingEmbedder(dim=2**20)
    index = VectorIndex(embedder)
    index.upsert("ns", chunks)
    expected = brute_force_top_k(embedder, chunks, "c0001w1", 3)
    assert [chunk_id for chunk_id, _ in expected] == ["c0001", "c0000", "c0002"]
    assert expected[0][1] > 0.0 and expected[1][1] == expected[2][1] == 0.0
    assert index.query_top_k("ns", "c0001w0", 3)[0][0] == "c0001"  # builds the postings
    _CountedId.comparisons = 0
    assert index.query_top_k("ns", "c0001w1", 3) == expected
    # The zero-score places cost the chunks the query touched, not a pass over all ids.
    assert _CountedId.comparisons < 10


# Tiny namespaces at dim 64: a few buckets hold every chunk, and one chunk
# often holds several coordinates of one bucket.
@_LAYOUTS
@settings(max_examples=150, deadline=None)
@given(
    bodies=st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12).map(" ".join), min_size=2, max_size=30),
    order=st.randoms(use_true_random=False),
    queries=st.lists(_query_words, min_size=1, max_size=4),
    k=st.sampled_from([1, 3, 30]),
)
def test_query_top_k_equals_brute_force_in_small_colliding_namespaces(one_bucket_max, bodies, order, queries, k):
    ids = [f"c{i:02d}" for i in range(len(bodies))]
    order.shuffle(ids)
    chunks = [Chunk(cid, "page", body, "ex") for cid, body in zip(ids, bodies)]
    embedder = HashingEmbedder(dim=64)
    index = VectorIndex(embedder)
    index.upsert("ns", chunks)
    with mock.patch("adagate.index._ONE_BUCKET_MAX_CHUNKS", one_bucket_max):
        for query in queries + ["", " ".join(_VOCAB), chunks[0].text]:
            assert index.query_top_k("ns", query, k) == brute_force_top_k(embedder, chunks, query, k)


# Namespace sizes on both sides of the one-bucket limit. Every chunk holds its
# own word, so each namespace has more than 8 components and the bucketed
# build makes several buckets; at dim 64 most buckets hold several coordinates.
@settings(deadline=None)
@given(
    size=st.sampled_from([_ONE_BUCKET_MAX_CHUNKS - 1, _ONE_BUCKET_MAX_CHUNKS, _ONE_BUCKET_MAX_CHUNKS + 1, 3 * _ONE_BUCKET_MAX_CHUNKS]),
    seed=st.integers(min_value=0),
    queries=st.lists(_query_words, min_size=1, max_size=4),
    dim=st.sampled_from([64, 2**20]),
    k=st.sampled_from([1, 3, 200]),
)
def test_one_bucket_and_bucketed_postings_give_the_brute_force_hits(size, seed, queries, dim, k):
    # Texts from a seeded generator: a draw per word made 3,000 examples take minutes.
    words = random.Random(seed)
    ids = [f"c{i:03d}" for i in range(size)]
    words.shuffle(ids)
    chunks = [
        Chunk(cid, "page", " ".join([f"own{cid}", *words.choices(_VOCAB, k=words.randrange(8))]), "ex")
        for cid in ids
    ]
    embedder = HashingEmbedder(dim=dim)
    space = _Namespace(zip(ids, zip(chunks, embedder.embed([c.text for c in chunks]))))
    layouts = {}
    for name, limit in [("default", _ONE_BUCKET_MAX_CHUNKS), ("one bucket", size), ("bucketed", 0)]:
        with mock.patch("adagate.index._ONE_BUCKET_MAX_CHUNKS", limit):
            layouts[name] = _Namespace(space).postings  # a new map builds its own postings
    assert len(layouts["one bucket"][1]) == 2
    assert len(layouts["bucketed"][1]) > 2
    assert (len(layouts["default"][1]) == 2) == (size <= _ONE_BUCKET_MAX_CHUNKS)
    for query in queries + ["", " ".join(_VOCAB), chunks[0].text]:
        vector = embedder.embed_one(query)
        expected = [(cid, score.hex()) for cid, score in brute_force_top_k(embedder, chunks, query, k)]
        for postings in layouts.values():
            assert [(cid, score.hex()) for cid, score in _postings_top_k(postings, vector, k)] == expected


def test_postings_of_a_large_namespace_take_under_half_a_coordinate_map():
    import tracemalloc

    _, _, index = build_world(200)  # 2,000 chunks
    space = index._spaces["clean"]
    components = sum(len(vec) for _, vec in space.values())
    tracemalloc.start()
    try:
        index.query_top_k("clean", "unseen", 1)
        table_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # On 64-bit CPython 3.11 a map from coordinate to chunk ids took 49 bytes
    # per stored component here and the bucketed ids take 9: stay under half.
    assert table_bytes / components < 24.5
