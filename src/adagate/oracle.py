"""Model-dependent primitives behind one interface with two backends.

The rule-based backend is pure and deterministic. It operates on a
synthetic markup convention used by all offline fixtures:

* Passage sentences may carry facts written ``ENT[entity] REL[relation]
  VAL[value]``. A fact's confidence is 1.0, or 0.5 when the sentence
  containing it carries the low-confidence marker ``~``.
* Questions encode their required fact slots as ``SLOT[entity|relation]``
  tokens, in order. An entity written ``*N`` refers to the resolved value
  of the N-th slot (1-based), which is how bridge hops are expressed.

The live backend talks to any chat-completion HTTP endpoint with fixed
prompts (below) at temperature 0. Transport failures are retried and then
surfaced; malformed model output degrades to an empty ledger plus a
warning rather than aborting a run.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

from .corpus import Chunk
from .transport import post_json

if TYPE_CHECKING:
    import requests

ABSTAIN = "I don't know"

FACT_PATTERN = re.compile(r"ENT\[([^\]]+)\]\s*REL\[([^\]]+)\]\s*VAL\[([^\]]+)\]")
SLOT_PATTERN = re.compile(r"SLOT\[([^\]|]+)\|([^\]]+)\]")
LOW_CONFIDENCE_MARK = "~"
_SENTENCE_SPLIT = re.compile(r"[.!?]")
_BACKREF = re.compile(r"^\*(\d+)$")

LOW_CONFIDENCE = 0.5
FULL_CONFIDENCE = 1.0

LEDGER_PROMPT = (
    "Extract every atomic fact from the passages below as one JSON object per line "
    'with keys "entity", "relation", "value", "confidence" (0 to 1). '
    "Use the passage heading as context. Output JSON lines only.\n\nPassages:\n{passages}"
)
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

    def add(self, fact: Fact) -> bool:
        """Add unless an exact (entity, relation, value, source) duplicate exists."""
        key = (fact.entity, fact.relation, fact.value, fact.source_chunk)
        for existing in self.facts:
            if (existing.entity, existing.relation, existing.value, existing.source_chunk) == key:
                return False
        self.facts.append(fact)
        return True

    def pairs(self) -> set[tuple[str, str]]:
        return {(f.entity.lower(), f.relation.lower()) for f in self.facts}

    def matching(self, entity: str, relation: str) -> list[Fact]:
        """Facts for (entity, relation), best first (confidence, then value, source)."""
        hits = [
            f
            for f in self.facts
            if f.entity.lower() == entity.lower() and f.relation.lower() == relation.lower()
        ]
        hits.sort(key=lambda f: (-f.confidence, f.value, f.source_chunk))
        return hits

    def low_confidence(self, threshold: float) -> list[Fact]:
        return [f for f in self.facts if f.confidence < threshold]

    def __len__(self) -> int:
        return len(self.facts)


@dataclass(frozen=True)
class Gap:
    entity: str
    relation: str
    rationale: str = ""


@dataclass(frozen=True)
class SufficiencyVerdict:
    sufficient: bool
    gaps: tuple[Gap, ...] = ()

    def __post_init__(self) -> None:
        if self.sufficient and self.gaps:
            raise ValueError("a sufficient verdict cannot carry gaps")


@dataclass(frozen=True)
class Slot:
    """One required fact slot parsed from a question."""

    entity_ref: str
    relation: str

    def backref(self) -> int | None:
        match = _BACKREF.match(self.entity_ref)
        return int(match.group(1)) if match else None


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


def parse_slots(question: str) -> list[Slot]:
    return [Slot(entity_ref=e.strip(), relation=r.strip()) for e, r in SLOT_PATTERN.findall(question)]


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


def resolve_slots(question: str, ledger: Ledger) -> list[tuple[Slot, str | None, Fact | None]]:
    """Resolve slots in order to (slot, entity or None, best matching fact or None).

    A backreferenced entity is None while its prerequisite slot is
    unresolved; such slots produce no gap of their own because the
    prerequisite's gap already covers the hop.
    """
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
            facts = ledger.matching(entity, slot.relation)
            fact = facts[0] if facts else None
        resolved.append((slot, entity, fact))
        values.append(fact.value if fact else None)
    return resolved


def match_slots(question: str, ledger: Ledger) -> list[Fact]:
    """Best ledger fact per resolvable question slot, in slot order.

    Empty for a question without ``SLOT[...]`` markup.
    """
    return [fact for _, _, fact in resolve_slots(question, ledger) if fact is not None]


class RuleBasedOracle:
    """Deterministic oracle over the markup conventions documented above."""

    backend = "rules"

    def extract_ledger(self, evidence: Sequence[Chunk]) -> Ledger:
        ledger = Ledger()
        for chunk in evidence:
            for sentence in _SENTENCE_SPLIT.split(chunk.text):
                low = LOW_CONFIDENCE_MARK in sentence
                for entity, relation, value in FACT_PATTERN.findall(sentence):
                    ledger.add(
                        Fact(
                            entity=entity.strip(),
                            relation=relation.strip(),
                            value=value.strip(),
                            confidence=LOW_CONFIDENCE if low else FULL_CONFIDENCE,
                            source_chunk=chunk.chunk_id,
                        )
                    )
        return ledger

    def extract_pairs(self, chunk: Chunk) -> set[tuple[str, str]]:
        """(entity, relation) pairs extractable from one chunk, lowercased."""
        return {
            (entity.strip().lower(), relation.strip().lower())
            for entity, relation, _ in FACT_PATTERN.findall(chunk.text)
        }

    def assess_sufficiency(self, question: str, ledger: Ledger) -> SufficiencyVerdict:
        resolved = resolve_slots(question, ledger)
        if resolved and all(fact is not None for _, _, fact in resolved):
            return SufficiencyVerdict(sufficient=True)
        gaps = tuple(
            Gap(
                entity=entity,
                relation=slot.relation,
                rationale=f"slot {i + 1} of the question is unresolved",
            )
            for i, (slot, entity, fact) in enumerate(resolved)
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
        return norm_gold in norm_pred or norm_pred in norm_gold

    def novelty(self, chunk: Chunk, ledger: Ledger) -> float:
        """Fraction of the chunk's (entity, relation) pairs absent from the ledger."""
        pairs = self.extract_pairs(chunk)
        if not pairs:
            return 0.0
        known = ledger.pairs()
        return len([p for p in pairs if p not in known]) / len(pairs)


@dataclass
class LiveOracleConfig:
    url: str
    model: str = "gpt-4o-mini"
    judge_model: str = "gpt-4o"
    key_env: str = "ADAGATE_ORACLE_KEY"
    timeout: float = 60.0
    max_attempts: int = 3
    log_path: str | None = None


class LiveOracle:
    """HTTP chat-completion backend with fixed prompts, temperature 0.

    One request is in flight per session; run one session per question for
    parallel batches. Malformed model output yields an empty result plus an
    entry in ``warnings`` instead of raising.
    """

    backend = "live"

    def __init__(self, config: LiveOracleConfig, session: requests.Session | None = None):
        self.config = config
        self.warnings: list[str] = []
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def extract_ledger(self, evidence: Sequence[Chunk]) -> Ledger:
        ledger = Ledger()
        if not evidence:
            return ledger
        passages = "\n\n".join(c.text for c in evidence)
        raw = self._complete(self.config.model, LEDGER_PROMPT.format(passages=passages))
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                ledger.add(
                    Fact(
                        entity=str(record["entity"]),
                        relation=str(record["relation"]),
                        value=str(record["value"]),
                        confidence=max(0.0, min(1.0, float(record.get("confidence", 1.0)))),
                        source_chunk=evidence[0].chunk_id,
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.warnings.append(f"unparseable ledger line from model: {line[:80]}")
        return ledger

    def assess_sufficiency(self, question: str, ledger: Ledger) -> SufficiencyVerdict:
        facts = "\n".join(f.as_text() for f in ledger.facts) or "(none)"
        raw = self._complete(self.config.model, GAP_PROMPT.format(question=question, facts=facts))
        gaps: list[Gap] = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                gaps.append(
                    Gap(
                        entity=str(record["entity"]),
                        relation=str(record["relation"]),
                        rationale=str(record.get("rationale", "")),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                self.warnings.append(f"unparseable gap line from model: {line[:80]}")
        if gaps:
            return SufficiencyVerdict(sufficient=False, gaps=tuple(gaps))
        return SufficiencyVerdict(sufficient=True)

    # The gap query template needs no model.
    make_queries = RuleBasedOracle.make_queries

    def generate_answer(self, question: str, evidence: Sequence[Chunk]) -> str:
        passages = "\n\n".join(c.text for c in evidence) or "(none)"
        answer = self._complete(
            self.config.model, ANSWER_PROMPT.format(question=question, passages=passages)
        ).strip()
        return answer or ABSTAIN

    def judge_answer(self, question: str, gold: str, predicted: str) -> bool:
        raw = self._complete(
            self.config.judge_model,
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

    def _complete(self, model: str, prompt: str) -> str:
        payload = {
            "model": model,
            "temperature": 0,
            "messages": [{"role": "user", "content": prompt}],
        }
        body = post_json(
            self._session,
            f"{self.config.url.rstrip('/')}/chat/completions",
            payload,
            key_env=self.config.key_env,
            timeout=self.config.timeout,
            max_attempts=self.config.max_attempts,
            service="oracle endpoint",
        )
        if self.config.log_path:  # before parsing, so a malformed completion is logged too
            with Path(self.config.log_path).open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"request": payload, "response": body}) + "\n")
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            self.warnings.append(f"malformed completion payload: {exc}")
            return ""
        return str(content)
