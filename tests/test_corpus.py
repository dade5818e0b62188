from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adagate.corpus import (
    Chunk,
    Example,
    chunk_corpus,
    chunk_from_record,
    chunk_to_record,
    count_tokens,
    load_examples,
    write_chunks,
)
from adagate.errors import ParseError, ValidationError
from adagate.perturb import PerturbConfig, inject_noise, inject_redundancy
from adagate.synthetic import WorldSpec, example_to_record, generate_world

from helpers import builtin_fixture_path


def test_fixture_loads_two_examples():
    examples = load_examples(builtin_fixture_path())
    assert len(examples) == 2
    for example in examples:
        assert example.question
        assert example.gold_titles
        titles = {title for title, _ in example.paragraphs}
        assert example.gold_titles <= titles


def test_limit_truncates_in_file_order(tmp_path):
    examples = load_examples(builtin_fixture_path(), limit=1)
    assert len(examples) == 1
    assert examples[0].id == "q000"
    # No line past the limit is read: a broken second record is never parsed.
    path = tmp_path / "first-then-broken.jsonl"
    first = builtin_fixture_path().read_text(encoding="utf-8").splitlines()[0]
    path.write_text(first + "\n{broken\n", encoding="utf-8")
    assert load_examples(path, limit=1) == examples


def test_missing_answer_field_is_parse_error(tmp_path):
    record = {
        "_id": "x",
        "question": "q",
        "supporting_facts": [["T", 0]],
        "context": [["T", ["s."]]],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="record 0") as exc:
        load_examples(path)
    assert "answer" in str(exc.value)


def test_invalid_json_names_record_index(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {
        "_id": "x",
        "question": "q",
        "answer": "a",
        "supporting_facts": [["T", 0]],
        "context": [["T", ["s."]]],
    }
    path.write_text(json.dumps(good) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(ParseError, match="record 1"):
        load_examples(path)


def test_gold_title_absent_from_context_is_validation_error(tmp_path):
    record = {
        "_id": "x",
        "question": "q",
        "answer": "a",
        "supporting_facts": [["Missing", 0]],
        "context": [["T", ["s."]]],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="Missing"):
        load_examples(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"question": "  "}, "record 0: example 'x': empty question"),
        ({"supporting_facts": []}, "record 0: example 'x': no gold titles"),
    ],
)
def test_empty_question_or_gold_titles_is_validation_error(tmp_path, change, message):
    record = {"_id": "x", "question": "q", "answer": "a", "supporting_facts": [["T", 0]], "context": [["T", ["s."]]]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({**record, **change}) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_examples(path)


def test_a_repeated_id_is_validation_error_naming_both_records(tmp_path):
    first, second = builtin_fixture_path().read_text(encoding="utf-8").splitlines()
    path = tmp_path / "twice.jsonl"
    path.write_text("\n".join([first, second, first]) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^record 2: _id 'q000' repeats record 0$"):
        load_examples(path)
    assert [example.id for example in load_examples(path, limit=2)] == ["q000", "q001"]


@pytest.mark.parametrize(
    "question, gold_titles, message",
    [("  ", {"T"}, "empty question"), ("q", {"T", "Missing"}, "gold titles not found in context: Missing")],
    ids=["blank-question", "missing-gold-title"],
)
def test_an_example_checks_itself_when_built(question, gold_titles, message):
    with pytest.raises(ValidationError, match=f"^example 'x': {message}$"):
        Example("x", question, "a", frozenset(gold_titles), (("T", ("s.",)),))


def test_sentences_that_are_not_a_list_are_a_parse_error(tmp_path):
    record = {"_id": "x", "question": "q", "answer": "a", "supporting_facts": [["T", 0]]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({**record, "context": [["T", "One sentence."]]}) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^record 0: the sentences of paragraph 'T' are not a list$"):
        load_examples(path)
    path.write_text(json.dumps({**record, "context": [["T", ["One sentence."]]]}) + "\n", encoding="utf-8")
    assert chunk_corpus(load_examples(path))[0].body == "One sentence."


@pytest.mark.parametrize("facts", [["T0"], "T0", [["T", 0], "T0"], {"T": 0}], ids=repr)
def test_supporting_facts_that_are_not_lists_are_a_parse_error(tmp_path, facts):
    # Unpacking the string "T0" as a fact would read the gold title "T".
    record = {"_id": "x", "question": "q", "answer": "a", "supporting_facts": facts, "context": [["T", ["s."]]]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^record 0: supporting_facts must be a list of"):
        load_examples(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"_id": 5}, "_id must be a string, not 5"),
        ({"question": None}, "question must be a string, not null"),
        ({"answer": ["x"]}, 'answer must be a string, not \\["x"\\]'),
        ({"supporting_facts": [[7, 0]], "context": [[7, ["s."]]]}, "title must be a string, not 7"),
        ({"context": [[["T"], ["s."]]]}, 'title must be a string, not \\["T"\\]'),
        ({"context": [["T", [7, "s."]]]}, "sentence must be a string, not 7"),
        ({"context": [["T", ["s.", None]]]}, "sentence must be a string, not null"),
    ],
    ids=["id", "question", "answer", "fact-title", "context-title", "sentence", "null-sentence"],
)
def test_example_texts_must_be_json_strings(tmp_path, change, message):
    # str() would load these as the id "5", the question "None", the answer "['x']" and the sentence "7".
    record = {"_id": "x", "question": "q", "answer": "a", "supporting_facts": [["T", 0]], "context": [["T", ["s."]]]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({**record, **change}) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^record 0: {message}$"):
        load_examples(path)


# The first question of a seed-7 world is "... SLOT[subj000|rel000a] and then SLOT[*1|rel000b] ...".
@pytest.mark.parametrize(
    "slot, at",
    [
        ("SLOT[*0|rel000b]", 1),  # slot 0
        ("SLOT[ *0 |rel000b]", 1),  # padded, as resolve_slots strips it
        ("SLOT[*2|rel000b]", 1),  # itself
        ("SLOT[*3|rel000b]", 1),  # a later slot
        ("SLOT[*1|rel000a]", 0),  # the first slot names itself
    ],
    ids=["zero", "padded-zero", "itself", "later", "first-slot"],
)
def test_a_back_reference_to_no_earlier_slot_is_a_parse_error(tmp_path, slot, at):
    # Such a slot can never resolve: the rules oracle would end no_useful_repair with no gap.
    records = [example_to_record(e) for e in generate_world(WorldSpec(n_questions=2, seed=7))]
    slots = ["SLOT[subj000|rel000a]", "SLOT[*1|rel000b]"]
    assert all(s in records[0]["question"] for s in slots)
    path = tmp_path / "world.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert len(load_examples(path)) == 2
    records[0]["question"] = records[0]["question"].replace(slots[at], slot)
    # q000 second, so the error names the record that holds the slot.
    path.write_text("".join(json.dumps(r) + "\n" for r in reversed(records)), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_examples(path)
    assert str(exc.value) == f"record 1: {slot} names no earlier slot"


def test_chunk_corpus_empty():
    assert chunk_corpus([]) == []


def test_chunk_corpus_one_chunk_per_paragraph(fixture_examples):
    chunks = chunk_corpus(fixture_examples)
    assert len(chunks) == 20
    expected = sum(len(e.paragraphs) for e in fixture_examples)
    assert len(chunks) == expected
    by_example = {}
    for chunk in chunks:
        by_example.setdefault(chunk.source_example, []).append(chunk)
    for example in fixture_examples:
        titles = [title for title, _ in example.paragraphs]
        assert [c.title for c in by_example[example.id]] == titles
        assert all(c.provenance == "original" for c in by_example[example.id])
    ids = [c.chunk_id for c in chunks]
    assert len(set(ids)) == len(ids)


def test_count_tokens_basics():
    assert count_tokens("") == 0
    assert count_tokens("yes both American") == 3


def test_count_tokens_fixture_paragraph_hand_count(fixture_examples):
    # q000's first gold paragraph: hand-counted once, frozen here.
    title, sentences = fixture_examples[0].paragraphs[8]
    assert title == "subj000 profile"
    body = " ".join(sentences)
    assert count_tokens(body) == 58
    assert count_tokens(f"{title}\n{body}") == 60


@given(st.text(min_size=1), st.text(min_size=1))
def test_count_tokens_additive_over_space_join(a, b):
    assert count_tokens(f"{a} {b}") == count_tokens(a) + count_tokens(b)


def test_chunk_token_len_recomputable(fixture_chunks):
    for chunk in fixture_chunks:
        assert count_tokens(chunk.text) == chunk.token_len
    with pytest.raises(TypeError):
        Chunk("c", "t", "b", "ex", token_len=1)


@given(st.text(), st.text())
def test_a_chunk_counts_its_own_tokens(title, body):
    chunk = Chunk("c", title, body, "ex")
    assert chunk.token_len == count_tokens(chunk.text)


def test_chunk_text_is_title_heading_plus_body(fixture_chunks):
    chunk = fixture_chunks[0]
    assert chunk.text == f"{chunk.title}\n{chunk.body}"


def test_chunk_record_roundtrip(fixture_examples, fixture_chunks):
    noisy = inject_noise(fixture_examples, fixture_chunks, PerturbConfig(kind="noise", rho=0.5, seed=3))
    redundant = inject_redundancy(fixture_examples, fixture_chunks, PerturbConfig(kind="redundancy", rho=0.5, seed=3))
    for chunk in fixture_chunks[:3] + [noisy[-1], redundant[-1]]:
        record = chunk_to_record(chunk)
        assert list(record) == ["chunk_id", "title", "body", "token_len", "source_example", "provenance"]
        assert chunk_from_record(record) == chunk
    assert {noisy[-1].provenance, redundant[-1].provenance} == {"noise_crossquery", "redundant_variant"}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("token_len", 12.9, "token_len 12.9, not"),
        ("token_len", True, "token_len true, not"),
        ("token_len", "7", 'token_len "7", not'),
        ("token_len", 1, "token_len 1, not"),  # understates the passage's cost under the budget
        ("chunk_id", 5, "field 'chunk_id' must be a string, not 5"),
        ("body", None, "field 'body' must be a string, not null"),
        ("provenance", ["original"], "field 'provenance' must be a string"),
    ],
    ids=["token_len-float", "token_len-bool", "token_len-string", "token_len-understated", "chunk_id-int",
         "body-null", "provenance-list"],
)
def test_chunk_record_is_read_strictly(fixture_chunks, field, value, message):
    chunk = fixture_chunks[0]
    assert chunk.token_len > 1
    record = chunk_to_record(chunk)
    with pytest.raises(ParseError, match=message):
        chunk_from_record({**record, field: value})
    del record[field]
    with pytest.raises(ParseError, match=f"missing field '{field}'"):
        chunk_from_record(record)


def test_unknown_provenance_rejected(fixture_chunks):
    record = chunk_to_record(fixture_chunks[0])
    record["provenance"] = "mystery"
    with pytest.raises(ValidationError):
        chunk_from_record(record)


def test_a_write_that_fails_midway_leaves_the_previous_file(tmp_path, fixture_chunks):
    path = tmp_path / "chunks.jsonl"
    write_chunks(path, fixture_chunks)
    before = path.read_bytes()

    def failing():
        yield from fixture_chunks[:2]
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError):
        write_chunks(path, failing())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["chunks.jsonl"]
