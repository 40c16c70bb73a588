"""End-to-end simulation: trace + catalog + MBT protocol + metrics.

Implements the evaluation model of §VI-A:

* a configurable fraction of nodes are Internet access nodes;
* every day at 12:00 noon, ``files_per_day`` new files (TTL
  ``ttl_days``) are generated and nodes issue queries by popularity;
* Internet access nodes sync with the servers right after generation;
* every trace contact triggers one hello/discovery/download exchange
  with fixed metadata and piece budgets;
* delivery ratios are measured among the non-Internet-access nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.detlint.hashseed import hash_seed_value

from repro.catalog.adversary import FakeFileFactory
from repro.catalog.generator import CatalogConfig, CatalogGenerator
from repro.catalog.metadata import PublisherRegistry
from repro.catalog.popularity import PopularityTracker
from repro.catalog.server import FileServer, MetadataServer
from repro.core.credits import CREDIT_POLICIES
from repro.core.mbt import MobileBitTorrent, ProtocolConfig, ProtocolVariant, SchedulingMode
from repro.core.node import NodeState
from repro.core.strategies import AdversaryPlan, AdversaryState
from repro.faults import FaultInjector, FaultPlan
from repro.net.medium import ContactBudget
from repro.perf import PerfRecorder
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.traces.base import ContactTrace
from repro.types import DAY, NodeId, noon_of_day

#: Event priorities when several events share an instant: the noon
#: action (expiry, then the day's generation) before syncs before contacts.
_PRIORITY_EXPIRE = 0
_PRIORITY_SYNC = 2
_PRIORITY_CONTACT = 3
#: Churn crash/rebirth events; after contacts at the same instant so a
#: crash at a contact's exact start time does not retroactively mute it.
_PRIORITY_FAULT = 4


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulation run (paper defaults, §VI-A)."""

    #: Fraction of nodes that can access the Internet (0.1 – 0.9).
    internet_access_fraction: float = 0.3
    #: New files generated per day at noon (10 – 100).
    files_per_day: int = 40
    #: File (and query) time-to-live in days (1 – 5).
    ttl_days: float = 3.0
    #: Metadata transmissions per contact (1 – 10).
    metadata_per_contact: int = 5
    #: File/piece transmissions per contact (1 – 10).
    files_per_contact: int = 5
    #: Pieces per file (1 = whole-file exchange, the paper's model).
    pieces_per_file: int = 1
    #: Protocol variant under test.
    variant: ProtocolVariant = ProtocolVariant.MBT
    #: Pick §V-B cyclic scheduling when ``scheduling`` is None (credit
    #: ledgers accrue under either mode).
    tit_for_tat: bool = False
    #: Broadcast medium (paper) or pair-wise baseline.
    broadcast: bool = True
    #: Scheduling override; None picks the §V default for the policy.
    scheduling: Optional[SchedulingMode] = None
    #: Frequent-contact threshold: max days between meetings
    #: (3 for DieselNet, 1 for NUS, §VI-A).
    frequent_contact_max_gap_days: float = 3.0
    #: Number of simulated days; None = ceil of the trace span.
    num_days: Optional[int] = None
    #: Bound on each node's metadata store (None = unbounded).
    metadata_capacity: Optional[int] = None
    #: Eviction policy of bounded stores: popularity | fifo | lru | utility.
    metadata_policy: str = "popularity"
    #: Derive per-contact budgets from contact duration and bandwidth
    #: instead of the fixed counts above (§V's realistic regime).
    use_duration_budgets: bool = False
    #: Effective channel bandwidth when duration budgets are on.
    bandwidth_bytes_per_s: float = 100_000.0
    #: Whether nodes verify metadata signatures (the defence).
    verify_signatures: bool = True
    #: §IV-B future work: encrypt pieces and choke zero-credit peers.
    encrypted_choking: bool = False
    #: User selection among matched metadata: "all" (evaluation model)
    #: or "best" (§III-B: pick one — verified publisher, top popularity).
    selection_policy: str = "all"
    #: When True, the metadata server re-estimates popularities from
    #: the access nodes' requests in the past 24 h (the paper's §IV-A
    #: server-side definition) instead of using the generation-time
    #: ground truth (the paper's simplified evaluation model).
    track_popularity: bool = False
    #: Deterministic fault injection (loss, corruption, flapping,
    #: churn); the default all-zero plan changes nothing.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Deterministic adversarial-strategy assignment (free-riders,
    #: under-reporters, polluters, tit-for-tat exploiters); the default
    #: clean plan changes nothing.
    adversaries: AdversaryPlan = field(default_factory=AdversaryPlan)
    #: Credit scheme: "plain" (the paper's §IV-B tit-for-tat ledger) or
    #: "reputation" (first-hand reputation-hardened variant).
    credit_policy: str = "plain"
    #: Safety valve: abort (SimulationError) if a run executes more
    #: than this many events. None = unbounded.
    max_events: Optional[int] = None
    #: Collect wall-clock phase timers (``perf.time_us.*``) alongside
    #: the always-on deterministic ``perf.*`` counters. Off by default:
    #: timer values differ between runs, which would break the
    #: result-equality invariants (serial vs parallel, reruns).
    profile: bool = False
    #: Master seed: node roles, catalog and queries all derive from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.internet_access_fraction <= 1.0:
            raise ValueError("internet_access_fraction must be in [0, 1]")
        if self.files_per_day < 1:
            raise ValueError("files_per_day must be >= 1")
        if self.ttl_days <= 0:
            raise ValueError("ttl_days must be positive")
        if self.metadata_per_contact < 0 or self.files_per_contact < 0:
            raise ValueError("per-contact budgets must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if self.frequent_contact_max_gap_days <= 0:
            raise ValueError("frequent_contact_max_gap_days must be positive")
        if self.num_days is not None and self.num_days < 1:
            raise ValueError("num_days must be >= 1 (None = the trace span)")
        if self.credit_policy not in CREDIT_POLICIES:
            raise ValueError(
                f"credit_policy must be one of {CREDIT_POLICIES}, "
                f"got {self.credit_policy!r}"
            )

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            variant=self.variant,
            budget=ContactBudget(
                metadata=self.metadata_per_contact, pieces=self.files_per_contact
            ),
            tit_for_tat=self.tit_for_tat,
            scheduling=self.scheduling,
            broadcast=self.broadcast,
            request_memory=self.ttl_days * DAY,
            duration_budgets=self.use_duration_budgets,
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            encrypted_choking=self.encrypted_choking,
        )

    def catalog_config(self) -> CatalogConfig:
        return CatalogConfig(
            files_per_day=self.files_per_day,
            ttl_days=self.ttl_days,
            pieces_per_file=self.pieces_per_file,
        )

    def with_variant(self, variant: ProtocolVariant) -> "SimulationConfig":
        """Copy with a different protocol variant (sweep helper)."""
        return replace(self, variant=variant)


class Simulation:
    """One runnable simulation over a contact trace."""

    def __init__(self, trace: ContactTrace, config: SimulationConfig) -> None:
        if trace.num_nodes < 2:
            raise ValueError("trace must involve at least two nodes")
        self.trace = trace
        self.config = config

        nodes = list(trace.nodes)
        access_count = min(
            len(nodes), round(config.internet_access_fraction * len(nodes))
        )
        self._access_nodes: FrozenSet[NodeId] = frozenset(
            random.Random(config.seed).sample(nodes, access_count)
        )
        # The adversary plan is the only source of every other node
        # role. It draws from its own SHA-256-derived stream, so
        # activating a plan does not perturb the access pick above. A
        # clean plan builds no state at all, keeping the honest path
        # bitwise identical.
        self._adversary = (
            None
            if config.adversaries.is_clean()
            else AdversaryState(config.adversaries, nodes, config.seed)
        )

        registry = PublisherRegistry(config.seed)
        self._registry = registry
        self._states: Dict[NodeId, NodeState] = {
            node: NodeState(
                node=node,
                registry=registry,
                internet_access=node in self._access_nodes,
                metadata_capacity=config.metadata_capacity,
                metadata_policy=config.metadata_policy,
                verify_signatures=config.verify_signatures,
                selection_policy=config.selection_policy,
                strategy=(
                    self._adversary.strategy_of(node)
                    if self._adversary is not None
                    else None
                ),
                credit_policy=config.credit_policy,
            )
            for node in nodes
        }
        frequent = trace.frequent_neighbors(config.frequent_contact_max_gap_days)
        for node, neighbors in frequent.items():
            self._states[node].frequent_contacts = neighbors

        tracker = (
            PopularityTracker(population=max(1, len(self._access_nodes)))
            if config.track_popularity
            else None
        )
        # Perf first: the catalog servers record their heap expiries and
        # ranked-view rebuilds into the run's recorder.
        self._perf = PerfRecorder(profile=config.profile)
        self._metadata_server = MetadataServer(tracker, perf=self._perf)
        self._file_server = FileServer(perf=self._perf)
        self._metrics = MetricsCollector()
        self._generator = CatalogGenerator(
            config.catalog_config(), nodes, seed=config.seed, registry=registry
        )
        self._polluter_factory = (
            FakeFileFactory(seed=self._adversary.polluter_factory_seed)
            if self._adversary is not None
            and self._adversary.polluters
            and config.adversaries.polluter_fakes_per_day > 0
            else None
        )
        # A clean plan builds no injector at all, keeping the fault-free
        # path (and its results) bitwise identical to pre-fault builds.
        self._injector = (
            None if config.faults.is_clean() else FaultInjector(config.faults, config.seed)
        )
        self._engine = MobileBitTorrent(
            self._states,
            self._metadata_server,
            self._file_server,
            self._metrics,
            config.protocol_config(),
            faults=self._injector,
            perf=self._perf,
            adversary=self._adversary,
        )

    # -- accessors used by tests and examples --------------------------------------

    @property
    def access_nodes(self) -> FrozenSet[NodeId]:
        return self._access_nodes

    @property
    def adversary(self) -> Optional[AdversaryState]:
        """The active adversary state (None under a clean plan)."""
        return self._adversary

    @property
    def adversary_nodes(self) -> FrozenSet[NodeId]:
        """Nodes assigned a non-honest strategy by the adversary plan."""
        return self._adversary.nodes if self._adversary is not None else frozenset()

    @property
    def states(self) -> Dict[NodeId, NodeState]:
        return self._states

    @property
    def engine(self) -> MobileBitTorrent:
        return self._engine

    @property
    def metrics(self) -> MetricsCollector:
        return self._metrics

    def num_days(self) -> int:
        if self.config.num_days is not None:
            return self.config.num_days
        return max(1, int(-(-self.trace.duration // DAY)))

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        event_observer: Optional[Callable[[float, int], None]] = None,
    ) -> SimulationResult:
        """Execute the full simulation and return the delivery ratios.

        ``event_observer`` (if given) is installed on the engine and
        called after every executed event — the detcheck sanitizer's
        hook for per-event invariant assertions.
        """
        sim = Simulator()
        sim.event_observer = event_observer
        days = self.num_days()
        horizon = days * DAY

        for day in range(days):
            noon = noon_of_day(day)
            sim.schedule(noon, self._make_noon_action(day, noon), _PRIORITY_EXPIRE)
            sim.schedule(noon, self._make_sync_action(noon), _PRIORITY_SYNC)

        # Consecutive contacts at the same trace instant are scheduled
        # as ONE batch event: the engine processes them in the same
        # order as before (grouping only merges runs, so the stable
        # event queue's pop order is unchanged). ``events_contact``
        # therefore counts batches; ``contacts_processed`` still counts
        # contacts.
        def contacts_in_horizon():
            for contact in self.trace:
                if contact.start >= horizon:
                    break
                yield contact

        for start, group in groupby(contacts_in_horizon(), key=lambda c: c.start):
            sim.schedule(
                start,
                self._make_contacts_action(list(group), start),
                _PRIORITY_CONTACT,
            )

        if self._injector is not None:
            for node, crash_at, rebirth_at in self._injector.churn_schedule(
                list(self.trace.nodes), days
            ):
                if crash_at >= horizon:
                    continue
                sim.schedule(crash_at, self._make_crash_action(node), _PRIORITY_FAULT)
                if rebirth_at < horizon:
                    sim.schedule(
                        rebirth_at, self._make_rebirth_action(node), _PRIORITY_FAULT
                    )

        sim.run(until=horizon, max_events=self.config.max_events)
        extra = {
            "num_days": float(days),
            "num_contacts": float(len(self.trace)),
            "access_nodes": float(len(self._access_nodes)),
            "adversary_nodes": float(len(self.adversary_nodes)),
            "events": float(sim.events_executed),
            # The hash seed this run executed under (-1 = unpinned).
            # Recorded so detcheck (and post-hoc result forensics) can
            # verify what the environment pinned; the kernel exports
            # PYTHONHASHSEED before fan-out, keeping this identical
            # across serial and parallel executions.
            "detcheck.pythonhashseed": float(hash_seed_value()),
        }
        if self._adversary is not None:
            # Honest-population delivery: the figrobust panel's y-axis.
            # Adversaries' own queries are excluded — a free-rider that
            # starves itself is not protocol degradation.
            honest = frozenset(
                node
                for node in self._states
                if node not in self._adversary.nodes and node not in self._access_nodes
            )
            meta_ratio, file_ratio, count = self._metrics.ratios_for(honest)
            extra["adversary.honest_metadata_ratio"] = meta_ratio
            extra["adversary.honest_file_ratio"] = file_ratio
            extra["adversary.honest_queries"] = float(count)
        extra.update(self._instrumentation(sim))
        return self._metrics.result(extra)

    #: Semantic names of the event-priority classes scheduled above.
    _PRIORITY_NAMES = {
        _PRIORITY_EXPIRE: "events_noon",
        _PRIORITY_SYNC: "events_sync",
        _PRIORITY_CONTACT: "events_contact",
        _PRIORITY_FAULT: "events_fault",
    }

    def _instrumentation(self, sim: Simulator) -> Dict[str, float]:
        """Engine, per-priority and per-node counters for ``extra``.

        The keys land in :data:`repro.sim.metrics.COUNTER_KEYS`, so the
        result exposes them pre-filtered as ``result.counters``.
        """
        counters: Dict[str, float] = {}
        for priority, count in sim.events_by_priority.items():
            name = self._PRIORITY_NAMES.get(priority, f"events_priority_{priority}")
            counters[name] = counters.get(name, 0.0) + float(count)
        for name, value in self._engine.counters.as_dict().items():
            counters[name] = float(value)
        stats = [self._states[node].stats for node in sorted(self._states)]
        counters["metadata_rejected_auth"] = float(
            sum(s.metadata_rejected_auth for s in stats)
        )
        counters["metadata_evictions"] = float(sum(s.metadata_evictions for s in stats))
        counters["checksum_rejections"] = float(
            sum(s.checksum_rejections for s in stats)
        )
        if self._injector is not None:
            for name, value in self._injector.counters.items():
                counters[f"faults.{name}"] = float(value)
        if self._adversary is not None:
            for name, value in self._adversary.counters.items():
                counters[f"adversary.{name}"] = float(value)
            for name, value in self._adversary.nodes_by_strategy().items():
                counters[f"adversary.nodes_{name}"] = float(value)
        for name, value in self._perf_counters().items():
            counters[name] = float(value)
        return counters

    def _perf_counters(self) -> Dict[str, int]:
        """Run-level ``perf.*`` instrumentation (engine + node caches)."""
        out = dict(self._perf.as_counters())
        states = list(self._states.values())
        out["perf.wanted_cache_hits"] = sum(s.wanted_cache_hits for s in states)
        out["perf.wanted_cache_misses"] = sum(s.wanted_cache_misses for s in states)
        out["perf.query_cache_hits"] = sum(s.query_cache_hits for s in states)
        out["perf.query_cache_misses"] = sum(s.query_cache_misses for s in states)
        return out

    def node_report(self) -> List[Dict[str, object]]:
        """Per-node operational summary after (or during) a run.

        One row per node: role flags, store sizes, send/receive
        counters and total credit granted — the table
        ``examples/freerider_incentives.py`` style analyses start from.
        """
        rows: List[Dict[str, object]] = []
        for node in sorted(self._states):
            state = self._states[node]
            row: Dict[str, object] = {
                "node": int(node),
                "internet_access": state.internet_access,
                "strategy": state.strategy.name,
                "metadata_stored": len(state.metadata),
                "pieces_stored": state.pieces.total_pieces(),
                "credit_granted": state.credits.total_granted(),
            }
            row.update(state.stats.as_dict())
            rows.append(row)
        return rows

    def _make_noon_action(self, day: int, noon: float):
        def action() -> None:
            self._engine.expire_all(noon)
            self._registry.forget_expired(noon)
            self._metadata_server.refresh_popularities(noon)
            batch = self._generator.generate_day(day, noon)
            self._engine.on_daily_batch(batch, noon)
            self._inject_fakes(batch, noon)

        return action

    def _inject_fakes(self, batch, noon: float) -> None:
        """Seed today's fake mirrors into the plan's polluters (§I attack)."""
        if self._polluter_factory is None:
            return
        assert self._adversary is not None
        fakes = self._polluter_factory.make_fakes(
            batch, self.config.adversaries.polluter_fakes_per_day
        )
        self._adversary.count("fakes_seeded", len(fakes.metadata))
        pirates = sorted(self._adversary.polluters)
        for fake in fakes.metadata:
            for node in pirates:
                state = self._states[node]
                # Pirates store their own fabrications unverified and
                # hold the full fake content, ready to serve it.
                state.metadata.add(fake)
                state.receive_whole_file(fake.uri, fake.num_pieces)

    def _make_sync_action(self, at: float):
        def action() -> None:
            for node in sorted(self._access_nodes):
                self._engine.internet_sync(node, at)

        return action

    def _make_contacts_action(self, contacts, at: float):
        def action() -> None:
            self._engine.handle_contacts(contacts, at)

        return action

    def _make_crash_action(self, node: NodeId):
        def action() -> None:
            self._engine.crash_node(node, wipe=self.config.faults.wipe_on_crash)

        return action

    def _make_rebirth_action(self, node: NodeId):
        def action() -> None:
            self._engine.revive_node(node)

        return action


def run_simulation(trace: ContactTrace, config: SimulationConfig) -> SimulationResult:
    """Convenience one-shot runner."""
    return Simulation(trace, config).run()
