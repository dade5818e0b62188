"""In-memory span tracer for the benchmark's traced pass.

The tracer records one span per call of a wrapped function: name, start,
end, parent span and question id, plus the phase (``setup`` or
``questions``) the benchmark was in when the span opened. Wrapping is done
from outside the program: ``Tracer.patched`` replaces each target attribute
where its caller looks it up (a module global, a class attribute or a dict
entry) and puts the original back on exit, even when the body raises.

Parents are tracked per thread, so spans opened in a worker thread of the
CLI's ``--jobs`` pool are roots of their own trees. A span's self time is
its duration minus the union of the intervals its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

PHASE_SETUP = "setup"
PHASE_QUESTIONS = "questions"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    qid: str | None
    phase: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` (or ``owner[attr]`` for a dict).

    ``name`` is the span name, or a function of the call's positional
    arguments returning it. ``note`` runs after the call with
    ``(tracer, args, result)`` to record counters. ``qid`` extracts the
    question id from the positional arguments, for spans that start a
    question's tree.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    note: Callable[["Tracer", tuple, Any], None] | None = None
    qid: Callable[[tuple], str] | None = None


def _get_raw(owner: Any, attr: str) -> Any:
    if isinstance(owner, dict):
        return owner[attr]
    return vars(owner)[attr]


def _set_raw(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.phase = PHASE_SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, qid: str | None = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        parent, parent_qid = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        qid = qid if qid is not None else parent_qid
        phase = self.phase
        stack.append((sid, qid))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, qid, phase))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[(self.phase, name)] += value

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(value, self.maxima.get(name, value))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, note, qid_of = target.name, target.note, target.qid

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            qid = qid_of(args) if qid_of is not None else None
            result = self.call(span_name, fn, args, kwargs, qid)
            if note is not None:
                note(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def patched(self, targets: Sequence[Target]) -> "_Patch":
        return _Patch(self, targets)

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON line, in the order spans closed."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class _Patch:
    """Context manager installing wrappers; restores every original on exit."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]):
        self.tracer = tracer
        self.targets = targets
        self.originals: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        try:
            for target in self.targets:
                raw = _get_raw(target.owner, target.attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self.tracer.wrap(raw.__func__, target))
                else:
                    new = self.tracer.wrap(raw, target)
                self.originals.append((target.owner, target.attr, raw))
                _set_raw(target.owner, target.attr, new)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self.originals:
            owner, attr, raw = self.originals.pop()
            _set_raw(owner, attr, raw)


def _covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times_ns(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.sid: s.duration_ns - _covered_ns(s.start_ns, s.end_ns, children.get(s.sid, ()))
        for s in spans
    }


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def totals_by_name(spans: Sequence[Span], phase: str | None = None) -> dict[str, SpanTotals]:
    """Per span name: call count, summed duration and summed self time."""
    own = self_times_ns(spans)
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for s in spans:
        if phase is not None and s.phase != phase:
            continue
        t = out[s.name]
        t.calls += 1
        t.total_ns += s.duration_ns
        t.self_ns += own[s.sid]
    return out
