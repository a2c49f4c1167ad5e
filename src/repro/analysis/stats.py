"""Statistical helpers for reporting simulation results."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "SummaryStatistics",
    "summarize",
    "student_t_quantile",
    "t_confidence_interval",
    "paired_difference",
    "series_mean",
    "series_sample_std",
    "acceptance_percentage",
]


def acceptance_percentage(accepted: float, requested: float) -> float:
    """Acceptance percentage with the pinned historical arithmetic.

    ``100.0 * (accepted / requested)``, and ``0.0`` when nothing was
    requested — the single executable spec of the paper's headline metric,
    shared by :class:`repro.cellular.metrics.CallMetrics`, the frame's
    derived acceptance column and the trace pipeline's counter-free
    fallback, so every reporting path stays bit-identical (see
    :func:`series_mean` for why the arithmetic is pinned).
    """
    if requested == 0:
        return 0.0
    return 100.0 * (accepted / requested)


def series_mean(values: Sequence[float]) -> float:
    """Left-to-right mean: ``sum(values) / len(values)``.

    This is deliberately the exact arithmetic of the historical replication
    aggregation loops (``aggregate_runs``/``aggregate_network_runs``), kept
    as the single executable spec both those loops and the columnar
    :meth:`repro.analysis.frame.MetricsFrame.group_reduce` share — so the
    two paths stay bit-identical, not merely close.
    """
    if not values:
        raise ValueError("cannot average an empty series")
    return sum(values) / len(values)


def series_sample_std(values: Sequence[float], mean: float | None = None) -> float:
    """Sample standard deviation with the historical loop arithmetic.

    ``sqrt(sum((v - mean)**2) / (n - 1))`` for ``n > 1``, else ``0.0`` —
    the exact expression of the original aggregation loops (see
    :func:`series_mean` for why the arithmetic is pinned).
    """
    if not values:
        raise ValueError("cannot take the deviation of an empty series")
    if mean is None:
        mean = series_mean(values)
    if len(values) <= 1:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance)


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / spread summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def standard_error(self) -> float:
        if self.count < 1:
            return 0.0
        return self.std / math.sqrt(self.count)


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Compute summary statistics of a non-empty sample."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarise an empty sample")
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
    else:
        variance = 0.0
    return SummaryStatistics(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(data),
        maximum=max(data),
    )


def _regularized_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``.

    The continued fraction of Numerical Recipes §6.4 (modified Lentz),
    evaluated on whichever of ``x`` / ``1 - x`` converges quickly.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(x, a, b) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(1.0 - x, b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    tiny = 1e-300

    def guard(value: float) -> float:
        return value if abs(value) > tiny else tiny

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    result = d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        result *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        result *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return result


def student_t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Inverts the CDF ``1 - I_{df/(df+t²)}(df/2, 1/2) / 2`` (for ``t > 0``)
    by bisection; symmetric below the median.  Agrees with tabulated
    values to better than 1e-12 relative for ``p`` in [0.8, 0.9999];
    close to the median the relative error grows while the absolute error
    stays below 1e-10.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    tail = 2.0 * (1.0 - p)

    def upper_tail(t: float) -> float:  # 2 * P(T > t), decreasing in t
        return _regularized_beta(df / (df + t * t), df / 2.0, 0.5)

    low, high = 0.0, 1.0
    while upper_tail(high) > tail:
        low, high = high, 2.0 * high
    for _ in range(200):
        middle = 0.5 * (low + high)
        if middle in (low, high):
            break
        if upper_tail(middle) > tail:
            low = middle
        else:
            high = middle
    return 0.5 * (low + high)


def t_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of a sample."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    summary = summarize(values)
    if summary.count < 2 or summary.std == 0.0:
        return (summary.mean, summary.mean)
    t_value = student_t_quantile(0.5 + confidence / 2.0, summary.count - 1)
    half_width = t_value * summary.standard_error
    return (summary.mean - half_width, summary.mean + half_width)


def paired_difference(
    first: Sequence[float], second: Sequence[float], confidence: float = 0.95
) -> tuple[float, tuple[float, float]]:
    """Mean paired difference (first - second) with its confidence interval.

    Used to report e.g. "FACS accepts X percentage points more than SCC at
    N=30 requests" with an uncertainty band across replications.
    """
    if len(first) != len(second):
        raise ValueError(
            f"paired samples must have equal length, got {len(first)} and {len(second)}"
        )
    differences = [float(a) - float(b) for a, b in zip(first, second)]
    interval = t_confidence_interval(differences, confidence)
    return (sum(differences) / len(differences), interval)
