"""Model-dependent primitives behind one interface with two backends.

The rule-based backend is pure and deterministic. It operates on a
synthetic markup convention used by all offline fixtures:

* Passage sentences may carry facts written ``ENT[entity] REL[relation]
  VAL[value]``. A fact's confidence is 1.0, or 0.5 when the sentence
  containing it carries the low-confidence marker ``~``. Bracketed parts
  may contain punctuation: a ``.``, ``!`` or ``?`` followed by whitespace
  ends a sentence unless it is inside a fact (``split_sentences``). The
  ledger and novelty read facts through one parse, ``passage_facts``.
* Questions encode their required fact slots as ``SLOT[entity|relation]``
  tokens, in order, read by one function, ``resolve_slots``. An entity
  written ``*N`` is the value of the N-th slot's fact (1-based), which is
  how bridge hops are expressed. A fact fills a slot when its entity and
  relation match ignoring case; the best has the highest confidence, then
  the smallest value, then the smallest source chunk, and a full tie keeps
  ledger order. A ``*N`` that names slot 0, itself, a later slot or an
  unresolved slot resolves to nothing and raises no gap of its own: the
  gap of the slot it names covers the hop. ``load_examples`` refuses the
  first three (``dangling_back_references``), which can never resolve.

The live backend talks to any chat-completion HTTP endpoint with fixed
prompts (below) at temperature 0. Transport failures are retried and then
surfaced; malformed model output degrades to an empty ledger plus a
warning rather than aborting a run.
"""

from __future__ import annotations

import json
import math
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .corpus import Chunk
from .transport import post_json

if TYPE_CHECKING:
    import requests

ABSTAIN = "I don't know"

FACT_PATTERN = re.compile(r"ENT\[([^\]]+)\]\s*REL\[([^\]]+)\]\s*VAL\[([^\]]+)\]")
SLOT_PATTERN = re.compile(r"SLOT\[([^\]|]+)\|([^\]]+)\]")
LOW_CONFIDENCE_MARK = "~"
# A whole fact or a sentence end; a fact is matched whole, so no sentence ends inside one.
_FACT_OR_SENTENCE_END = re.compile(FACT_PATTERN.pattern + r"|[.!?]\s+")
_BACKREF = re.compile(r"^\*(\d+)$")

LOW_CONFIDENCE = 0.5
FULL_CONFIDENCE = 1.0
COMPLETION_TIMEOUT_S = 60.0

LEDGER_PROMPT = (
    "Extract every atomic fact from the numbered passages below as one JSON object per line "
    'with keys "passage" (the number of the passage stating the fact), "entity", "relation", '
    '"value", "confidence" (0 to 1). '
    "Use the passage heading as context. Output JSON lines only.\n\nPassages:\n{passages}"
)
# Only the "entity" and "relation" of each gap line are read.
GAP_PROMPT = (
    "Given the question and the known facts, list the missing facts still needed to answer, "
    'one JSON object per line with keys "entity", "relation", "rationale". '
    "Output JSON lines only; output nothing if the facts suffice.\n\n"
    "Question: {question}\n\nKnown facts:\n{facts}"
)
ANSWER_PROMPT = (
    "Answer the question using only the evidence passages. "
    f'If the evidence is insufficient, reply exactly "{ABSTAIN}".\n\n'
    "Question: {question}\n\nEvidence:\n{passages}\n\nAnswer:"
)
JUDGE_PROMPT = (
    "Does the predicted answer convey the same fact as the gold answer to this question? "
    'Reply with exactly "yes" or "no".\n\n'
    "Question: {question}\nGold answer: {gold}\nPredicted answer: {predicted}"
)

_STOPWORDS = frozenset(
    "a an and about are as at be by do does for from how in is it of on or regarding "
    "that the then this to via was we what when where which who why with you learn".split()
)


@dataclass(frozen=True)
class Fact:
    entity: str
    relation: str
    value: str
    confidence: float
    source_chunk: str

    def as_text(self) -> str:
        return f"{self.entity} {self.relation} {self.value}"


@dataclass
class Ledger:
    """Entity-relation-value facts extracted from the current evidence."""

    facts: list[Fact] = field(default_factory=list)

    def add(self, fact: Fact) -> None:
        """Add unless an exact (entity, relation, value, source) duplicate exists."""
        key = (fact.entity, fact.relation, fact.value, fact.source_chunk)
        for existing in self.facts:
            if (existing.entity, existing.relation, existing.value, existing.source_chunk) == key:
                return
        self.facts.append(fact)

    def pairs(self) -> set[tuple[str, str]]:
        return {(f.entity.lower(), f.relation.lower()) for f in self.facts}

    def low_confidence(self, threshold: float) -> list[Fact]:
        return [f for f in self.facts if f.confidence < threshold]

    def __len__(self) -> int:
        return len(self.facts)


@dataclass(frozen=True)
class Gap:
    entity: str
    relation: str


@dataclass(frozen=True)
class SufficiencyVerdict:
    sufficient: bool
    gaps: tuple[Gap, ...] = ()

    def __post_init__(self) -> None:
        if self.sufficient and self.gaps:
            raise ValueError("a sufficient verdict cannot carry gaps")


class OracleBackend(Protocol):
    def extract_ledger(self, evidence: Sequence[Chunk]) -> Ledger: ...
    def assess_sufficiency(self, question: str, ledger: Ledger) -> SufficiencyVerdict: ...
    def make_queries(self, question: str, gaps: Sequence[Gap]) -> tuple[list[str], list[str]]: ...
    def generate_answer(self, question: str, evidence: Sequence[Chunk]) -> str: ...
    def judge_answer(self, question: str, gold: str, predicted: str) -> bool: ...
    def novelty(self, chunk: Chunk, ledger: Ledger) -> float: ...


def _normalize_answer(text: str) -> str:
    lowered = text.lower()
    cleaned = "".join(" " if ch in string.punctuation else ch for ch in lowered)
    return " ".join(cleaned.split())


def question_keywords(question: str) -> list[str]:
    """Content words of a question, markup tokens and stopwords removed."""
    stripped = SLOT_PATTERN.sub(" ", question)
    keywords = []
    for token in stripped.split():
        cleaned = token.strip(string.punctuation)
        if cleaned and cleaned.lower() not in _STOPWORDS:
            keywords.append(cleaned)
    return keywords


def fallback_queries(question: str) -> list[str]:
    """The question itself plus up to two keyword-subset queries."""
    queries = [question]
    keywords = question_keywords(question)
    if keywords:
        half = (len(keywords) + 1) // 2
        for subset in (keywords[:half], keywords[half:]):
            candidate = " ".join(subset)
            if candidate and candidate not in queries:
                queries.append(candidate)
    return queries


def resolve_slots(question: str, ledger: Ledger) -> list[tuple[str | None, str, Fact | None]]:
    """(entity, relation, best fact or None) of each ``SLOT[...]`` of ``question``, in order.

    The rule is the module docstring's; an entity that resolves to nothing is None.
    """
    resolved: list[tuple[str | None, str, Fact | None]] = []
    for entity, relation in SLOT_PATTERN.findall(question):
        entity, relation = entity.strip(), relation.strip()
        ref = _BACKREF.match(entity)
        if ref:
            n = int(ref[1])
            hop = resolved[n - 1][2] if 1 <= n <= len(resolved) else None
            entity = hop.value if hop else None
        fact = None
        if entity is not None:
            matches = (
                f
                for f in ledger.facts
                if f.entity.lower() == entity.lower() and f.relation.lower() == relation.lower()
            )
            fact = min(matches, key=lambda f: (-f.confidence, f.value, f.source_chunk), default=None)
        resolved.append((entity, relation, fact))
    return resolved


def dangling_back_references(question: str) -> list[str]:
    """The markup of each ``SLOT[*N|...]`` of ``question`` whose ``*N`` names slot 0, itself or a later slot.

    Such a slot can never resolve, whatever the ledger, so ``load_examples``
    refuses a question that has one.
    """
    return [
        slot[0]
        for position, slot in enumerate(SLOT_PATTERN.finditer(question), 1)
        if (ref := _BACKREF.match(slot[1].strip())) and not 1 <= int(ref[1]) < position
    ]


def split_sentences(text: str) -> list[str]:
    """The non-blank sentences of ``text``; every fact lies inside one of them.

    A ``.``, ``!`` or ``?`` followed by whitespace ends a sentence unless it
    is inside a fact; the whitespace belongs to neither sentence.
    """
    sentences, start = [], 0
    for match in _FACT_OR_SENTENCE_END.finditer(text):
        if match[1] is None:  # a sentence end, not a fact
            sentences.append(text[start : match.start() + 1])
            start = match.end()
    return [sentence for sentence in (*sentences, text[start:]) if sentence.strip()]


def passage_facts(chunk: Chunk) -> list[tuple[str, str, str, float]]:
    """(entity, relation, value, confidence) of each fact written in ``chunk``, in text order.

    The one parse of the fact markup: the ledger and novelty both read it.
    Sentence scopes matter only to the low-confidence marker, so a passage
    without one is read whole.
    """
    text = chunk.text
    facts = []
    for sentence in split_sentences(text) if LOW_CONFIDENCE_MARK in text else (text,):
        confidence = LOW_CONFIDENCE if LOW_CONFIDENCE_MARK in sentence else FULL_CONFIDENCE
        for entity, relation, value in FACT_PATTERN.findall(sentence):
            facts.append((entity.strip(), relation.strip(), value.strip(), confidence))
    return facts


class RuleBasedOracle:
    """Deterministic oracle over the markup conventions documented above."""

    def extract_ledger(self, evidence: Sequence[Chunk]) -> Ledger:
        ledger = Ledger()
        for chunk in evidence:
            for entity, relation, value, confidence in passage_facts(chunk):
                ledger.add(Fact(entity, relation, value, confidence, chunk.chunk_id))
        return ledger

    def assess_sufficiency(self, question: str, ledger: Ledger) -> SufficiencyVerdict:
        resolved = resolve_slots(question, ledger)
        if resolved and all(fact is not None for _, _, fact in resolved):
            return SufficiencyVerdict(sufficient=True)
        gaps = tuple(
            Gap(entity=entity, relation=relation)
            for entity, relation, fact in resolved
            if fact is None and entity is not None
        )
        return SufficiencyVerdict(sufficient=False, gaps=gaps)

    def make_queries(self, question: str, gaps: Sequence[Gap]) -> tuple[list[str], list[str]]:
        if not gaps:
            return [], []
        gap_queries = [f"{gap.entity} {gap.relation}".strip() for gap in gaps]
        return gap_queries, fallback_queries(question)

    def generate_answer(self, question: str, evidence: Sequence[Chunk]) -> str:
        ledger = self.extract_ledger(evidence)
        resolved = resolve_slots(question, ledger)
        if not resolved or any(fact is None for _, _, fact in resolved):
            return ABSTAIN
        return resolved[-1][2].value

    def judge_answer(self, question: str, gold: str, predicted: str) -> bool:
        norm_pred = _normalize_answer(predicted)
        norm_gold = _normalize_answer(gold)
        if not norm_pred or not norm_gold:
            return False
        if norm_pred == _normalize_answer(ABSTAIN):
            return False
        return f" {norm_gold} " in f" {norm_pred} " or f" {norm_pred} " in f" {norm_gold} "

    def novelty(self, chunk: Chunk, ledger: Ledger) -> float:
        """Fraction of the chunk's (entity, relation) pairs absent from the ledger."""
        pairs = {(entity.lower(), relation.lower()) for entity, relation, _, _ in passage_facts(chunk)}
        if not pairs:
            return 0.0
        known = ledger.pairs()
        return len([p for p in pairs if p not in known]) / len(pairs)


def _strings(record: dict, *names: str) -> list[str]:
    """The fields ``names`` of a model's JSON line; ValueError unless each is a string."""
    values = [record[name] for name in names]
    if any(type(value) is not str for value in values):
        raise ValueError(f"{' and '.join(names)} must be strings")
    return values


class LiveOracle:
    """HTTP chat-completion backend with fixed prompts, temperature 0.

    The API key is read from the environment variable named ``key_env``.
    Requests follow the shared policy of ``transport.post_json``, each with
    a timeout of ``COMPLETION_TIMEOUT_S``; with ``log_path``, every request
    and response is appended to that file as one JSON line. One request is
    in flight per session; run one session per question for parallel
    batches. Malformed model output yields an empty result plus an entry in
    ``warnings`` instead of raising. So does a ledger or gap line whose
    entity or relation is not a string, whose value is neither a string nor
    a number, or whose confidence is not a finite number (a bool is neither).
    """

    def __init__(
        self,
        url: str,
        model: str = "gpt-4o-mini",
        judge_model: str = "gpt-4o",
        key_env: str = "ADAGATE_ORACLE_KEY",
        log_path: str | None = None,
        session: requests.Session | None = None,
    ):
        self.url = url.rstrip("/")
        self.model = model
        self.judge_model = judge_model
        self.key_env = key_env
        self.log_path = log_path
        self.warnings: list[str] = []
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def extract_ledger(self, evidence: Sequence[Chunk]) -> Ledger:
        ledger = Ledger()
        if not evidence:
            return ledger
        passages = "\n\n".join(f"[{number}] {c.text}" for number, c in enumerate(evidence, 1))
        raw = self._complete(self.model, LEDGER_PROMPT.format(passages=passages))

        def fact(record: dict) -> Fact:
            number = record["passage"]
            if type(number) is not int or not 1 <= number <= len(evidence):
                raise ValueError(f"passage {number!r} is not one of 1..{len(evidence)}")
            entity, relation = _strings(record, "entity", "relation")
            value, confidence = record["value"], record.get("confidence", 1.0)
            if type(value) not in (str, int, float) or type(confidence) not in (int, float):
                raise ValueError("value must be a string or a number, and confidence a number")
            # NaN compares false, where min(1.0, nan) would be 1.0.
            if not -math.inf < confidence < math.inf:
                raise ValueError("confidence must be finite")
            return Fact(
                entity=entity,
                relation=relation,
                value=str(value),
                confidence=float(max(0.0, min(1.0, confidence))),  # an int may outgrow a float
                source_chunk=evidence[number - 1].chunk_id,
            )

        for item in self._parse_lines(raw, "ledger", fact):
            ledger.add(item)
        return ledger

    def assess_sufficiency(self, question: str, ledger: Ledger) -> SufficiencyVerdict:
        facts = "\n".join(f.as_text() for f in ledger.facts) or "(none)"
        raw = self._complete(self.model, GAP_PROMPT.format(question=question, facts=facts))
        gaps = self._parse_lines(raw, "gap", lambda record: Gap(*_strings(record, "entity", "relation")))
        if gaps:
            return SufficiencyVerdict(sufficient=False, gaps=tuple(gaps))
        return SufficiencyVerdict(sufficient=True)

    # The gap query template needs no model.
    make_queries = RuleBasedOracle.make_queries

    def generate_answer(self, question: str, evidence: Sequence[Chunk]) -> str:
        passages = "\n\n".join(c.text for c in evidence) or "(none)"
        answer = self._complete(
            self.model, ANSWER_PROMPT.format(question=question, passages=passages)
        ).strip()
        return answer or ABSTAIN

    def judge_answer(self, question: str, gold: str, predicted: str) -> bool:
        raw = self._complete(
            self.judge_model,
            JUDGE_PROMPT.format(question=question, gold=gold, predicted=predicted),
        )
        return raw.strip().lower().startswith("yes")

    def novelty(self, chunk: Chunk, ledger: Ledger) -> float:
        """Approximate novelty: fraction of capitalized tokens unseen in the ledger."""
        named = {
            token.strip(string.punctuation).lower()
            for token in chunk.body.split()
            if token[:1].isupper()
        }
        named.discard("")
        if not named:
            return 0.0
        seen: set[str] = set()
        for fact in ledger.facts:
            for piece in (fact.entity, fact.value):
                seen.update(word.lower() for word in piece.split())
        return len([t for t in named if t not in seen]) / len(named)

    def _parse_lines(self, raw: str, kind: str, build: Callable[[dict], object]) -> list:
        """``build`` of each JSON line of a completion; a line it cannot use becomes a warning."""
        items = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                items.append(build(json.loads(line)))
            except (ValueError, KeyError, TypeError):  # ValueError covers JSONDecodeError
                self.warnings.append(f"unparseable {kind} line from model: {line[:80]}")
        return items

    def _complete(self, model: str, prompt: str) -> str:
        payload = {
            "model": model,
            "temperature": 0,
            "messages": [{"role": "user", "content": prompt}],
        }
        body = post_json(
            self._session,
            f"{self.url}/chat/completions",
            payload,
            key_env=self.key_env,
            timeout=COMPLETION_TIMEOUT_S,
            service="oracle endpoint",
        )
        if self.log_path:  # before parsing, so a malformed completion is logged too
            with Path(self.log_path).open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"request": payload, "response": body}) + "\n")
        try:
            content = body["choices"][0]["message"]["content"]
            if type(content) is not str:  # null, or a list of content parts
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (KeyError, IndexError, TypeError) as exc:
            self.warnings.append(f"malformed completion payload: {exc}")
            return ""
        return content
