"""Analytical models: §V capacity and inter-contact statistics."""

from repro.analysis.capacity import (
    CapacityPoint,
    broadcast_per_node_capacity,
    capacity_table,
    pairwise_per_node_capacity,
)
from repro.analysis.intercontact import (
    ExponentialFit,
    InterContactStats,
    empirical_ccdf,
    fit_exponential,
    intercontact_samples,
    summarize,
)

__all__ = [
    "CapacityPoint",
    "broadcast_per_node_capacity",
    "capacity_table",
    "pairwise_per_node_capacity",
    "ExponentialFit",
    "InterContactStats",
    "empirical_ccdf",
    "fit_exponential",
    "intercontact_samples",
    "summarize",
]
