"""Summary statistics shared by the benchmark runner and its self-tests.

Pure functions over plain Python numbers, so the benchmark's own
arithmetic can be tested without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported percentile needs at least this many samples beyond it.
TAIL_SUPPORT = 10

#: Percentiles tried for the tail, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75)


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sequence."""
    if not ordered:
        raise ValueError("nearest_rank of an empty sequence")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q`` rank."""
    return n - max(1, math.ceil(q * n))


def median_and_tail(values: Sequence[float]) -> dict[str, float]:
    """Median plus the highest percentile with enough samples beyond it.

    The tail is the highest of :data:`TAIL_CANDIDATES` that leaves at least
    :data:`TAIL_SUPPORT` samples above its rank.  With too few samples for
    any of them the median is the only supported figure, and the tail
    repeats it with ``tail_q`` 0.5.
    """
    if not values:
        raise ValueError("median_and_tail needs at least one sample")
    ordered = sorted(values)
    n = len(ordered)
    p50 = float(statistics.median(ordered))
    tail_q, tail = 0.5, p50
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= TAIL_SUPPORT:
            tail_q, tail = q, float(nearest_rank(ordered, q))
            break
    return {"p50": p50, "tail": tail, "tail_q": tail_q, "count": n}


def ok_ratio(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded (``1 - failed_ratio``)."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return (attempted - failed) / attempted


def count_failures(runs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Total ``(attempted, failed)`` over per-run ``(attempted, failed)`` pairs."""
    return sum(a for a, _ in runs), sum(f for _, f in runs)


def run_counts(operations: int, problems: Sequence[str], shed: int = 0) -> tuple[int, int]:
    """``(attempted, failed)`` of one run.

    A run that raised or failed a correctness check counts all of its
    operations as failed; otherwise only its shed requests failed.
    """
    return operations, operations if problems else shed
