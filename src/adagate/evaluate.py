"""Evidence precision/recall/F1, result records, and the report.

Evidence quality is computed against gold supporting titles with selected
titles deduplicated first. A report is the list of ``ReportRow`` that
``aggregate`` computes, one per (condition, mode) pair present in the
results. ``tokens_per_correct`` is the mean input token count over
correctly answered questions only; when nothing was answered correctly it
is ``None``, rendered as an undefined marker, never zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import json_lines
from .errors import ParseError, SchemaError, ValidationError

RESULT_SCHEMA = "result@1"
UNDEFINED = "n/a"


@dataclass(frozen=True)
class ExampleResult:
    example_id: str
    condition: str
    mode: str
    correct: bool
    precision: float
    recall: float
    f1: float
    input_tokens: int
    docs_passed: int
    termination_reason: str

    def to_record(self) -> dict:
        return {"schema": RESULT_SCHEMA, **asdict(self)}

    @classmethod
    def from_record(cls, record: dict) -> "ExampleResult":
        """The result a record holds; ParseError naming the first field missing or of the wrong JSON type."""
        values = {}
        for f in fields(cls):
            if f.name not in record:
                raise ParseError(f"result record missing field {f.name!r}")
            value = record[f.name]
            expected, valid = _FIELD_TYPES[f.type]
            if not valid(value):
                raise ParseError(f"result record field {f.name!r} must be {expected}, not {value!r}")
            values[f.name] = float(value) if f.type == "float" else value
        return cls(**values)


# JSON type of each field type of ExampleResult (annotations are strings here).
_FIELD_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "float": (
        "a finite number in [0, 1]",
        lambda v: type(v) in (int, float) and 0.0 <= v <= 1.0,  # NaN fails both comparisons
    ),
}


def evidence_prf(
    selected_titles: Iterable[str], gold_titles: Iterable[str]
) -> tuple[float, float, float]:
    """Title-level precision, recall, and F1 with duplicate selections ignored."""
    gold = set(gold_titles)
    if not gold:
        raise ValidationError("gold title set must be non-empty")
    selected = set(selected_titles)
    if not selected:
        return 0.0, 0.0, 0.0
    overlap = len(selected & gold)
    precision = overlap / len(selected)
    recall = overlap / len(gold)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class ReportRow:
    condition: str
    mode: str
    n: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    avg_tokens: float
    avg_docs: float
    tokens_per_correct: float | None


def aggregate(results: Sequence[ExampleResult]) -> list[ReportRow]:
    """One row of arithmetic means per (condition, mode) pair present."""
    groups: dict[tuple[str, str], list[ExampleResult]] = {}
    for result in results:
        groups.setdefault((result.condition, result.mode), []).append(result)
    rows = []
    for (condition, mode), members in sorted(groups.items()):
        n = len(members)
        correct = [r.input_tokens for r in members if r.correct]
        rows.append(
            ReportRow(
                condition=condition,
                mode=mode,
                n=n,
                accuracy=100.0 * len(correct) / n,
                precision=sum(r.precision for r in members) / n,
                recall=sum(r.recall for r in members) / n,
                f1=sum(r.f1 for r in members) / n,
                avg_tokens=sum(r.input_tokens for r in members) / n,
                avg_docs=sum(r.docs_passed for r in members) / n,
                tokens_per_correct=sum(correct) / len(correct) if correct else None,
            )
        )
    return rows


def read_results(paths: Sequence[str | Path]) -> list[ExampleResult]:
    """Read line-delimited result records; any schema tag but ``result@1`` is an error."""
    results: list[ExampleResult] = []
    for path in paths:
        for i, record in json_lines(path, f"{path}: record"):
            if "error" in record:
                continue
            schema = record.get("schema")
            if schema != RESULT_SCHEMA:
                raise SchemaError(f"{path}: record {i}: unexpected schema {schema!r}")
            results.append(ExampleResult.from_record(record))
    return results


_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _row_cells(row: ReportRow, undefined: str) -> list[str]:
    return [
        row.condition,
        row.mode,
        str(row.n),
        f"{row.accuracy:.1f}",
        f"{row.precision:.3f}",
        f"{row.recall:.3f}",
        f"{row.f1:.3f}",
        f"{row.avg_tokens:.1f}",
        f"{row.avg_docs:.1f}",
        undefined if row.tokens_per_correct is None else f"{row.tokens_per_correct:.1f}",
    ]


def render_table(rows: Sequence[ReportRow]) -> str:
    """Aligned text table, header always present."""
    table = [list(_COLUMNS)] + [_row_cells(row, UNDEFINED) for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(_COLUMNS))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() for line in table]
    return "\n".join(lines)


def render_csv(rows: Sequence[ReportRow]) -> str:
    """CSV with a header row; an undefined ``tokens_per_correct`` is an empty cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_COLUMNS)
    writer.writerows(_row_cells(row, "") for row in rows)
    return buffer.getvalue()
