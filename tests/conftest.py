from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from adagate import transport
from adagate.corpus import chunk_corpus, load_examples
from adagate.index import HashingEmbedder, VectorIndex
from adagate.oracle import RuleBasedOracle

from helpers import WORLD_DIM, builtin_fixture_path

# ``--hypothesis-profile=deep``: many more examples for properties that set no count of their own.
settings.register_profile("deep", max_examples=3000, deadline=None)


@pytest.fixture(scope="session")
def fixture_examples():
    return load_examples(builtin_fixture_path())


@pytest.fixture(scope="session")
def fixture_chunks(fixture_examples):
    return chunk_corpus(fixture_examples)


@pytest.fixture(scope="session")
def fixture_index(fixture_chunks):
    index = VectorIndex(HashingEmbedder(dim=WORLD_DIM))
    index.upsert("clean", fixture_chunks)
    return index


@pytest.fixture
def oracle():
    return RuleBasedOracle()


@pytest.fixture(autouse=True)
def retry_sleeps(monkeypatch):
    """The waits ``transport`` asks for between attempts, in order; no test sleeps."""
    sleeps = []
    monkeypatch.setattr(transport, "_sleep", sleeps.append)
    return sleeps
