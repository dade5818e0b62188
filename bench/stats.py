"""Summary statistics shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Iterable, Sequence

TAIL_MIN_BEYOND = 10

# The reference loop's duration on the machine this benchmark was written
# on (a 2-vCPU KVM guest on a Xeon host) at its usual speed.
REFERENCE_NOMINAL_S = 0.00033
REFERENCE_EVERY_S = 0.025
_REFERENCE_TABLE = {i * 7919 % 1048576: float(i) for i in range(64)}


def _reference_work() -> float:
    """Fixed pure-Python work: int-keyed dict probes and float arithmetic."""
    total = 0.0
    for _ in range(40):
        for key in range(0, 1048576, 8191):
            value = _REFERENCE_TABLE.get(key)
            if value is not None:
                total += value * 1.5
    return total


class SpeedProbe:
    """Samples the machine's speed by timing a fixed reference loop.

    On a shared machine the speed of the same code drifts by tens of
    percent, in levels that hold from about a second to tens of seconds.
    The probe runs the reference loop between pieces of work, at most
    every ``REFERENCE_EVERY_S`` seconds when asked through
    ``maybe_sample``. ``scale`` rescales a time just measured to the
    machine's nominal speed, using the median of the latest samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _reference_work()
            end = time.perf_counter()
            self.samples.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, seconds: float, latest: int = 3) -> float:
        """``seconds`` at nominal speed, by the median of the latest samples."""
        return seconds * REFERENCE_NOMINAL_S / statistics.median(self.samples[-latest:])


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the eleventh-largest sample and the
    nearest-rank percentile it sits at, ``100 * (n - 10) / n``. Fewer than
    eleven samples have no such percentile and raise ValueError.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"need more than {TAIL_MIN_BEYOND} samples for a tail, got {n}")
    ordered = sorted(samples)
    rank = n - TAIL_MIN_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def failed_ratio(records: Iterable[dict]) -> tuple[int, int]:
    """``(failed, attempted)``: records carrying an ``error`` key count as failed."""
    attempted = failed = 0
    for record in records:
        attempted += 1
        if "error" in record:
            failed += 1
    return failed, attempted


def results_sha256(records: Iterable[dict]) -> str:
    """Digest of result records in order, with canonical JSON per record."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
