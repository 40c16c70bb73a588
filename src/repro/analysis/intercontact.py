"""Inter-contact time analysis of contact traces.

The inter-contact time (gap between consecutive meetings of a node
pair) is the key statistic of DTN traces: it controls achievable
delivery delay, and its distribution shape (exponential tail vs
power-law head) is how synthetic traces are validated against real
ones in the literature. This module computes:

* per-pair and aggregate inter-contact samples;
* summary statistics (mean, median, coefficient of variation);
* the empirical CCDF on a log grid;
* a maximum-likelihood exponential fit with a one-number
  goodness-of-fit score (mean absolute CCDF deviation), enough to say
  "this generator's gaps look exponential" in tests and examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.traces.base import ContactTrace
from repro.types import NodeId


def intercontact_samples(trace: ContactTrace) -> List[float]:
    """Aggregate inter-contact gaps over every node pair.

    A pair with *k* meetings contributes *k−1* gaps, measured from the
    end of one contact to the start of the next (non-negative; nested
    or overlapping contacts contribute zero).
    """
    samples: List[float] = []
    ends: Dict[Tuple[NodeId, NodeId], float] = {}
    for contact in trace:
        for pair in contact.pairs():
            last_end = ends.get(pair)
            if last_end is not None:
                samples.append(max(0.0, contact.start - last_end))
            previous = ends.get(pair, contact.end)
            ends[pair] = max(previous, contact.end)
    return samples


@dataclass(frozen=True)
class InterContactStats:
    """Summary of an inter-contact sample set."""

    count: int
    mean: float
    median: float
    #: Coefficient of variation (std/mean); 1.0 for exponential gaps.
    cv: float

    def describe(self) -> str:
        return (
            f"{self.count} gaps, mean {self.mean / 3600:.2f} h, "
            f"median {self.median / 3600:.2f} h, cv {self.cv:.2f}"
        )


def summarize(samples: Sequence[float]) -> InterContactStats:
    """Compute :class:`InterContactStats` of gap samples."""
    if not samples:
        raise ValueError("no inter-contact samples")
    ordered = sorted(samples)
    n = len(ordered)
    mean = sum(ordered) / n
    median = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    variance = sum((x - mean) ** 2 for x in ordered) / n
    cv = math.sqrt(variance) / mean if mean > 0 else 0.0
    return InterContactStats(count=n, mean=mean, median=median, cv=cv)


def empirical_ccdf(
    samples: Sequence[float], points: int = 20
) -> List[Tuple[float, float]]:
    """Empirical CCDF P(X > t) on a geometric grid of ``points`` ts."""
    if not samples:
        raise ValueError("no samples")
    if points < 2:
        raise ValueError("need at least two grid points")
    ordered = sorted(samples)
    positive = [s for s in ordered if s > 0]
    if not positive:
        return [(0.0, 0.0)]
    lo, hi = positive[0], ordered[-1]
    if hi <= lo:
        return [(lo, 0.0)]
    ratio = (hi / lo) ** (1.0 / (points - 1))
    grid = [lo * ratio**i for i in range(points)]
    n = len(ordered)
    ccdf = []
    for t in grid:
        exceed = sum(1 for s in ordered if s > t)
        ccdf.append((t, exceed / n))
    return ccdf


@dataclass(frozen=True)
class ExponentialFit:
    """MLE exponential fit of gap samples."""

    rate: float
    #: Mean absolute deviation between empirical and fitted CCDF.
    ccdf_error: float

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


def fit_exponential(samples: Sequence[float], points: int = 20) -> ExponentialFit:
    """MLE fit (rate = 1/mean) with a CCDF goodness score."""
    stats = summarize(samples)
    if stats.mean <= 0:
        raise ValueError("degenerate samples (zero mean)")
    rate = 1.0 / stats.mean
    deviations = [
        abs(p - math.exp(-rate * t)) for t, p in empirical_ccdf(samples, points)
    ]
    return ExponentialFit(rate=rate, ccdf_error=sum(deviations) / len(deviations))
