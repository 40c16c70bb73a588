"""The paper's file-popularity model and server-side tracking.

Paper §VI-A: each file is generated with a popularity ``p`` — the
probability that each node is interested in it. The probability density
of popularity is ``λ·e^(−λx)`` truncated to [0, 1]; sampling uses the
inverse CDF

    p = −ln(1 − x·(1 − e^(−λ))) / λ,   x ~ U(0, 1),

whose mean is approximately ``1/λ`` for large λ. With ``λ = n/2`` and
``n`` new files per day, each node generates about ``n·(2/n) = 2``
queries per day, which is the paper's operating point.

The server side (§IV) maintains popularity as "the percentage of
Internet access nodes requesting the file of the metadata in the past
24 hours"; :class:`PopularityTracker` implements that sliding window.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Tuple

from repro.types import DAY, NodeId, Uri


def sample_popularity(x: float, lam: float) -> float:
    """Inverse-CDF popularity sample for uniform variate ``x``.

    Parameters
    ----------
    x:
        Uniform variate in [0, 1).
    lam:
        Rate parameter λ > 0 of the truncated exponential.

    Returns
    -------
    float
        A popularity in [0, 1]; 0 maps to 0 and x→1 maps to 1.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"uniform variate must be in [0,1], got {x}")
    # Exactly, 1 − x·(1 − e^−λ) >= e^−λ; clamp to that bound so that
    # floating-point cancellation near x = 1 cannot push the log
    # argument to zero (the result is then exactly 1).
    argument = max(1.0 - x * (1.0 - math.exp(-lam)), math.exp(-lam))
    return min(-math.log(argument) / lam, 1.0)


def truncated_exponential_mean(lam: float) -> float:
    """Exact mean of the popularity distribution (≈ 1/λ for large λ)."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    z = 1.0 - math.exp(-lam)
    return 1.0 / lam - math.exp(-lam) / z


@dataclass(frozen=True)
class PopularityModel:
    """Sampler for file popularities at a given λ.

    The paper sets ``λ = n/2`` for ``n`` files generated per day so
    that nodes average two queries per day; use
    :meth:`for_files_per_day` to get that coupling.
    """

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @classmethod
    def for_files_per_day(cls, files_per_day: int, queries_per_node_per_day: float = 2.0) -> "PopularityModel":
        """λ chosen so each node averages the given queries/day.

        Mean popularity ≈ 1/λ, so expected queries/day = n/λ. Solving
        for λ gives ``λ = n / queries_per_day`` (the paper's λ = n/2).
        """
        if files_per_day < 1:
            raise ValueError("need at least one file per day")
        if queries_per_node_per_day <= 0:
            raise ValueError("queries per day must be positive")
        return cls(lam=files_per_day / queries_per_node_per_day)

    def sample(self, rng: random.Random) -> float:
        """Draw one popularity value."""
        return sample_popularity(rng.random(), self.lam)

    @property
    def mean(self) -> float:
        """Exact mean popularity."""
        return truncated_exponential_mean(self.lam)


class PopularityTracker:
    """Sliding-window request counter kept by the metadata server.

    ``record_request`` logs that an Internet-access node asked for a
    file; ``popularity_of`` returns the fraction of the access-node
    population that requested it within the last window (24 h by
    default) — the paper's suggested server-side definition (§IV-A).
    """

    def __init__(self, population: int, window: float = DAY) -> None:
        if population < 1:
            raise ValueError("population must be at least 1")
        if window <= 0:
            raise ValueError("window must be positive")
        self._population = population
        self._window = window
        self._requests: Dict[Uri, Deque[Tuple[float, NodeId]]] = {}

    def record_request(self, uri: Uri, node: NodeId, now: float) -> None:
        """Log a request by ``node`` for ``uri`` at time ``now``."""
        self._requests.setdefault(uri, deque()).append((now, node))

    def _prune(self, uri: Uri, now: float) -> None:
        queue = self._requests.get(uri)
        if not queue:
            return
        cutoff = now - self._window
        while queue and queue[0][0] < cutoff:
            queue.popleft()

    def popularity_of(self, uri: Uri, now: float) -> float:
        """Fraction of the population requesting ``uri`` in the window."""
        self._prune(uri, now)
        queue = self._requests.get(uri)
        if not queue:
            return 0.0
        distinct = {node for __, node in queue}
        return min(1.0, len(distinct) / self._population)

    def snapshot(self, uris: Iterable[Uri], now: float) -> Dict[Uri, float]:
        """Popularity estimates for many URIs at once."""
        return {uri: self.popularity_of(uri, now) for uri in uris}
