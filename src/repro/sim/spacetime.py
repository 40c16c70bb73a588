"""Space-time graph analysis of contact traces (§II-A).

"A DTN can be described abstractly using a space time graph in which
each edge corresponds to a contact." This module implements that
abstraction and the queries the reproduction uses it for:

* **earliest arrival** (foremost journey): the earliest time data
  generated at a source at time *t* can reach each node, assuming it
  can ride every contact (bandwidth-free oracle). Computed with a
  label-setting sweep over contacts in start order.
* **reachability sets** and **delivery upper bounds**: given a file
  generated at time *t* with TTL, which nodes could possibly have it
  before expiry? No protocol can beat this bound, so it contextualizes
  measured delivery ratios (the ``oracle-*`` rows of
  :data:`repro.experiments.validation.CLAIMS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from repro.traces.base import ContactTrace
from repro.types import NodeId


@dataclass(frozen=True)
class JourneyResult:
    """Earliest-arrival labels from one (source set, start time) query."""

    start_time: float
    arrival: Mapping[NodeId, float]

    def reachable_by(self, deadline: float) -> FrozenSet[NodeId]:
        """Nodes whose earliest arrival is at or before ``deadline``."""
        return frozenset(
            node for node, at in self.arrival.items() if at <= deadline
        )

    def delay_to(self, node: NodeId) -> float:
        """Earliest-arrival delay to ``node`` (inf if unreachable)."""
        return self.arrival.get(node, math.inf) - self.start_time


def earliest_arrival(
    trace: ContactTrace,
    sources: Iterable[NodeId],
    start_time: float = 0.0,
) -> JourneyResult:
    """Earliest time data at ``sources`` (from ``start_time``) reaches each node.

    Semantics: data can be transferred within any contact whose
    interval intersects the carrier's possession period — a carrier
    holding the data at time ``max(contact.start, label)`` hands it to
    every other member at that instant (broadcast, zero transmission
    time). This is the standard foremost-journey oracle; real protocols
    with budgets can only be slower.
    """
    labels: Dict[NodeId, float] = {node: start_time for node in sources}
    changed = True
    # One forward sweep catches most propagation; contacts with long
    # durations can relay "backwards" in start order (a contact that
    # started earlier but is still open when data arrives), so sweep
    # until a fixed point. Each sweep is O(contacts × clique size).
    while changed:
        changed = False
        for contact in trace:
            # Earliest time any member holds the data during the contact.
            best: Optional[float] = None
            for member in contact.members:
                label = labels.get(member)
                if label is None or label >= contact.end:
                    continue
                at = max(label, contact.start)
                if best is None or at < best:
                    best = at
            if best is None:
                continue
            for member in contact.members:
                if labels.get(member, math.inf) > best:
                    labels[member] = best
                    changed = True
    return JourneyResult(start_time=start_time, arrival=dict(labels))


def reachability_ratio(
    trace: ContactTrace,
    sources: Iterable[NodeId],
    start_time: float,
    deadline: float,
    population: Optional[Iterable[NodeId]] = None,
) -> float:
    """Fraction of ``population`` reachable from ``sources`` by ``deadline``.

    ``population`` defaults to every node in the trace except the
    sources themselves.
    """
    sources = frozenset(sources)
    result = earliest_arrival(trace, sources, start_time)
    reached = result.reachable_by(deadline)
    if population is None:
        pool = frozenset(trace.nodes) - sources
    else:
        pool = frozenset(population) - sources
    if not pool:
        return 0.0
    return len(reached & pool) / len(pool)


def pairwise_delays(
    trace: ContactTrace, start_time: float = 0.0
) -> Dict[NodeId, Dict[NodeId, float]]:
    """Earliest-arrival delay matrix between all node pairs.

    O(nodes × contacts); fine for trace-analysis use, not for inner
    loops.
    """
    matrix: Dict[NodeId, Dict[NodeId, float]] = {}
    for source in trace.nodes:
        result = earliest_arrival(trace, [source], start_time)
        matrix[source] = {
            node: result.delay_to(node) for node in trace.nodes if node != source
        }
    return matrix


def oracle_file_delivery_bound(
    trace: ContactTrace,
    access_nodes: Iterable[NodeId],
    generation_time: float,
    ttl: float,
) -> float:
    """Upper bound on any protocol's file delivery for one generation.

    A file generated at ``generation_time`` enters the DTN through the
    Internet-access nodes; the bound is the fraction of non-access
    nodes the space-time graph can reach before the TTL expires.
    """
    access = frozenset(access_nodes)
    return reachability_ratio(
        trace,
        access,
        start_time=generation_time,
        deadline=generation_time + ttl,
        population=frozenset(trace.nodes) - access,
    )
