"""Per-node transmission capacity: broadcast vs pair-wise (§V).

The paper's theoretical observation motivating broadcast-based file
download: for a clique of *n* nodes sharing one wireless channel,

* **broadcast** — one sender at a time, all others receive, so each
  node receives a ``(n−1)/n`` share of the channel: *increasing* in n;
* **pair-wise** — each transmission has exactly one receiver, so each
  node receives a ``1/n`` share: *decreasing* in n.

This module holds the closed forms, a table builder used by the
capacity row of :data:`repro.experiments.validation.CLAIMS`, and the
crossover fact that the two coincide only at n = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List


def broadcast_per_node_capacity(n: int, channel_capacity: float = 1.0) -> float:
    """Per-node received bandwidth under broadcast: W·(n−1)/n."""
    if n < 1:
        raise ValueError("clique size must be >= 1")
    if channel_capacity <= 0:
        raise ValueError("channel capacity must be positive")
    if n == 1:
        return 0.0
    return channel_capacity * (n - 1) / n


def pairwise_per_node_capacity(n: int, channel_capacity: float = 1.0) -> float:
    """Per-node received bandwidth under pair-wise transfer: W/n."""
    if n < 1:
        raise ValueError("clique size must be >= 1")
    if channel_capacity <= 0:
        raise ValueError("channel capacity must be positive")
    if n == 1:
        return 0.0
    return channel_capacity / n


def capacity_gain(n: int) -> float:
    """Broadcast advantage factor: (n−1)/n ÷ 1/n = n−1."""
    if n < 2:
        raise ValueError("gain is defined for cliques of size >= 2")
    return float(n - 1)


@dataclass(frozen=True)
class CapacityPoint:
    """One row of the capacity-vs-density table."""

    clique_size: int
    broadcast: float
    pairwise: float


def capacity_table(
    clique_sizes: Iterable[int], channel_capacity: float = 1.0
) -> List[CapacityPoint]:
    """Tabulate both capacities over ``clique_sizes``."""
    return [
        CapacityPoint(
            clique_size=n,
            broadcast=broadcast_per_node_capacity(n, channel_capacity),
            pairwise=pairwise_per_node_capacity(n, channel_capacity),
        )
        for n in clique_sizes
    ]
