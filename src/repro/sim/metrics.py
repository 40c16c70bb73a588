"""Delivery bookkeeping: the paper's performance measurements.

§VI-B: "the performance measurements we use are delivery ratios of
metadata and files, which is the ratio of the number of delivered
metadata and files over the total number of queries generated.
Performance is measured among the non-Internet access nodes."

A query is *metadata-delivered* when its node first stores a metadata
record for the query's target file while the query is live, and
*file-delivered* when the node completes every piece of the target file
while the query is live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.catalog.query import Query
from repro.contracts.counters import surfaced_keys
from repro.types import NodeId, Uri


@dataclass
class QueryRecord:
    """Delivery state of one generated query."""

    query: Query
    access_node: bool
    metadata_delivered_at: Optional[float] = None
    file_delivered_at: Optional[float] = None

    @property
    def metadata_delivered(self) -> bool:
        return self.metadata_delivered_at is not None

    @property
    def file_delivered(self) -> bool:
        return self.file_delivered_at is not None


#: Instrumentation counters recognised by :attr:`SimulationResult.counters`:
#: the counter registry's ``surfaced`` keys, in registry order. Fault and
#: adversary counters are present only when a run has a non-clean plan.
COUNTER_KEYS: Tuple[str, ...] = surfaced_keys()

#: Prefix of the performance-instrumentation namespace (see
#: :mod:`repro.perf`): deterministic index/cache statistics plus, under
#: ``--profile``, wall-clock phase timers as ``perf.time_us.*``. Result
#: fingerprints strip the registry's ``excluded`` families (see
#: :func:`repro.contracts.counters.excluded_prefixes`).
PERF_COUNTER_PREFIX = "perf."


def format_counters(counters: Mapping[str, int]) -> str:
    """Aligned two-column rendering of an instrumentation-counter dict."""
    if not counters:
        return "(no counters)"
    width = max(len(name) for name in counters)
    return "\n".join(
        f"{name:>{width}}  {int(value):>12d}" for name, value in counters.items()
    )


@dataclass(frozen=True)
class SimulationResult:
    """Final outcome of one simulation run.

    Ratios are measured among non-Internet-access nodes, per the paper.
    ``extra`` carries auxiliary counters (transmissions, per-node
    aggregates) for diagnostics and the benchmark tables; the
    instrumentation subset is available pre-filtered via
    :attr:`counters`.
    """

    metadata_delivery_ratio: float
    file_delivery_ratio: float
    queries_generated: int
    metadata_delivered: int
    files_delivered: int
    access_metadata_delivery_ratio: float
    access_file_delivery_ratio: float
    extra: Mapping[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"metadata {self.metadata_delivery_ratio:.3f}, "
            f"file {self.file_delivery_ratio:.3f} "
            f"({self.queries_generated} queries from non-access nodes)"
        )

    @property
    def counters(self) -> Dict[str, int]:
        """Instrumentation counters present in ``extra``, as ints.

        Keys follow :data:`COUNTER_KEYS` order; counters a run did not
        produce (e.g. ``choked_sends`` without encrypted choking is
        still 0, but pre-instrumentation results lack the key entirely)
        are omitted rather than invented. Performance-instrumentation
        keys (``perf.*``) follow, sorted by name.
        """
        out = {
            key: int(self.extra[key]) for key in COUNTER_KEYS if key in self.extra
        }
        for key in sorted(self.extra):
            if key.startswith(PERF_COUNTER_PREFIX):
                out[key] = int(self.extra[key])
        return out

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form, JSON-serializable (for reports and the CLI)."""
        return {
            "metadata_delivery_ratio": self.metadata_delivery_ratio,
            "file_delivery_ratio": self.file_delivery_ratio,
            "queries_generated": self.queries_generated,
            "metadata_delivered": self.metadata_delivered,
            "files_delivered": self.files_delivered,
            "access_metadata_delivery_ratio": self.access_metadata_delivery_ratio,
            "access_file_delivery_ratio": self.access_file_delivery_ratio,
            "extra": dict(self.extra),
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (q in [0, 1])."""
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rank = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class MetricsCollector:
    """Tracks every generated query and its delivery instants."""

    def __init__(self) -> None:
        self._records: List[QueryRecord] = []
        #: (node, target_uri) -> records awaiting delivery.
        self._pending: Dict[Tuple[NodeId, Uri], List[QueryRecord]] = {}

    def register_query(self, query: Query, access_node: bool) -> QueryRecord:
        """Start tracking a freshly generated query."""
        record = QueryRecord(query=query, access_node=access_node)
        self._records.append(record)
        self._pending.setdefault((query.node, query.target_uri), []).append(record)
        return record

    def on_metadata(self, node: NodeId, uri: Uri, now: float) -> None:
        """Node stored a metadata record for ``uri``."""
        for record in self._pending.get((node, uri), ()):
            if record.metadata_delivered_at is None and record.query.is_live(now):
                record.metadata_delivered_at = now

    def on_file_complete(self, node: NodeId, uri: Uri, now: float) -> None:
        """Node completed every piece of ``uri``."""
        for record in self._pending.get((node, uri), ()):
            if record.query.is_live(now):
                if record.metadata_delivered_at is None:
                    record.metadata_delivered_at = now
                if record.file_delivered_at is None:
                    record.file_delivered_at = now

    @property
    def records(self) -> List[QueryRecord]:
        return list(self._records)

    def metadata_delays(self, access_node: bool = False) -> List[float]:
        """Sorted metadata delivery delays (delivered queries only)."""
        return sorted(
            r.metadata_delivered_at - r.query.created_at
            for r in self._records
            if r.access_node == access_node and r.metadata_delivered_at is not None
        )

    def file_delays(self, access_node: bool = False) -> List[float]:
        """Sorted file delivery delays (delivered queries only)."""
        return sorted(
            r.file_delivered_at - r.query.created_at
            for r in self._records
            if r.access_node == access_node and r.file_delivered_at is not None
        )

    def ratios_for(
        self, nodes: "set[NodeId] | frozenset[NodeId]"
    ) -> Tuple[float, float, int]:
        """(metadata ratio, file ratio, query count) over a node subset.

        Used for per-group analyses (e.g. cooperative vs free-rider
        delivery under tit-for-tat choking, or honest-node delivery
        under an adversary plan). Counts every query whose issuing node
        is in ``nodes`` regardless of access status.
        """
        records = [r for r in self._records if r.query.node in nodes]
        if not records:
            return (0.0, 0.0, 0)
        meta = sum(1 for r in records if r.metadata_delivered)
        file = sum(1 for r in records if r.file_delivered)
        return (meta / len(records), file / len(records), len(records))

    def result(self, extra: Optional[Mapping[str, float]] = None) -> SimulationResult:
        """Aggregate into a :class:`SimulationResult`."""
        non_access = [r for r in self._records if not r.access_node]
        access = [r for r in self._records if r.access_node]

        def ratios(records: List[QueryRecord]) -> Tuple[float, int, int]:
            if not records:
                return 0.0, 0, 0
            meta = sum(1 for r in records if r.metadata_delivered)
            file = sum(1 for r in records if r.file_delivered)
            return len(records), meta, file

        total, meta, file = ratios(non_access)
        a_total, a_meta, a_file = ratios(access)
        merged_extra: Dict[str, float] = {}
        for prefix, delays in (
            ("metadata_delay", self.metadata_delays()),
            ("file_delay", self.file_delays()),
        ):
            if delays:
                merged_extra[f"{prefix}_p50"] = _percentile(delays, 0.50)
                merged_extra[f"{prefix}_p90"] = _percentile(delays, 0.90)
                merged_extra[f"{prefix}_mean"] = sum(delays) / len(delays)
        if extra:
            merged_extra.update(extra)
        return SimulationResult(
            metadata_delivery_ratio=meta / total if total else 0.0,
            file_delivery_ratio=file / total if total else 0.0,
            queries_generated=int(total),
            metadata_delivered=int(meta),
            files_delivered=int(file),
            access_metadata_delivery_ratio=a_meta / a_total if a_total else 0.0,
            access_file_delivery_ratio=a_file / a_total if a_total else 0.0,
            extra=merged_extra,
        )
