"""Trace-driven harness for the wire-level runtime.

Runs the same evaluation model as :mod:`repro.sim.runner` — daily
generation at noon, Internet syncs, per-contact budgets, delivery
measured over non-access nodes — but every DTN interaction travels as
serialized frames over an :class:`~repro.runtime.radio.EmulatedRadio`:

1. each contact opens a broadcast domain with the members joined;
2. every member beacons a hello (the §III-B handshake);
3. members transmit metadata then pieces in the §V-B cyclic order,
   each choosing its next frame from *local* knowledge only, until the
   per-contact budgets are spent or nobody has anything useful left.

Internet-side behaviour (daily batches, syncs, query distribution to
frequent contacts) reuses the protocol engine, which is legitimate:
those interactions are with servers, not over the DTN radio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.catalog.generator import CatalogGenerator
from repro.catalog.metadata import PublisherRegistry
from repro.core.coordinator import cyclic_order
from repro.core.mbt import MobileBitTorrent, SchedulingMode
from repro.core.node import NodeState
from repro.runtime.node import DTNNode
from repro.runtime.radio import EmulatedRadio
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.runner import SimulationConfig
from repro.traces.base import Contact, ContactTrace
from repro.types import DAY, NodeId, noon_of_day

from repro.catalog.server import FileServer, MetadataServer
from repro.catalog.popularity import PopularityTracker

import random

#: ``SimulationConfig`` fields the wire-level runtime does not model:
#: the radio is always a broadcast domain, nodes keep no credit ledger,
#: never choke and select every match, and there are no pirates, fault
#: plans, adversary strategies or phase timers. A run that sets any of
#: them would otherwise match the clean run bit for bit.
UNSUPPORTED_FIELDS = (
    "broadcast",
    "fake_files_per_day",
    "malicious_fraction",
    "encrypted_choking",
    "selection_policy",
    "faults",
    "adversaries",
    "credit_policy",
    "profile",
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime-specific knobs on top of :class:`SimulationConfig`."""

    #: Hello beacon rounds at contact start (≥1; 2 stabilizes 'heard').
    hello_rounds: int = 1
    #: Optional radio fault hook installed on every contact:
    #: (sender, frame bytes) -> delivered bytes, or None to drop.
    #: Corrupted frames are rejected by the codec at the receivers.
    fault_hook: Optional[object] = None


class RuntimeHarness:
    """Wire-level counterpart of :class:`repro.sim.runner.Simulation`."""

    def __init__(
        self,
        trace: ContactTrace,
        config: SimulationConfig,
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> None:
        if trace.num_nodes < 2:
            raise ValueError("trace must involve at least two nodes")
        default = SimulationConfig()
        unsupported = [
            name
            for name in UNSUPPORTED_FIELDS
            if getattr(config, name) != getattr(default, name)
        ]
        if unsupported:
            raise ValueError(
                "RuntimeHarness does not implement "
                + ", ".join(unsupported)
                + "; leave them at their defaults"
            )
        self.trace = trace
        self.config = config
        self.runtime_config = runtime_config or RuntimeConfig()
        rng = random.Random(config.seed)

        nodes = list(trace.nodes)
        count = min(len(nodes), round(config.internet_access_fraction * len(nodes)))
        self._access_nodes = frozenset(rng.sample(nodes, count))
        selfish_count = min(len(nodes), round(config.selfish_fraction * len(nodes)))
        self._selfish_nodes = frozenset(rng.sample(nodes, selfish_count))

        registry = PublisherRegistry(config.seed)
        protocol = config.protocol_config()
        self._metrics = MetricsCollector()
        self._states: Dict[NodeId, NodeState] = {}
        self._devices: Dict[NodeId, DTNNode] = {}
        for node in nodes:
            state = NodeState(
                node=node,
                registry=registry,
                internet_access=node in self._access_nodes,
                selfish=node in self._selfish_nodes,
                metadata_capacity=config.metadata_capacity,
                metadata_policy=config.metadata_policy,
                piece_capacity=config.piece_capacity,
                verify_signatures=config.verify_signatures,
            )
            self._states[node] = state
            self._devices[node] = DTNNode(state, protocol, self._metrics)

        frequent = trace.frequent_neighbors(config.frequent_contact_max_gap_days)
        for node, neighbors in frequent.items():
            self._states[node].frequent_contacts = neighbors

        self._metadata_server = MetadataServer(
            PopularityTracker(max(1, len(self._access_nodes)))
            if config.track_popularity
            else None
        )
        self._file_server = FileServer()
        self._generator = CatalogGenerator(
            config.catalog_config(), nodes, seed=config.seed, registry=registry
        )
        # The engine is reused for the *server-side* interactions only
        # (daily batches, Internet syncs, expiry); DTN contacts go over
        # the radio below.
        self._engine = MobileBitTorrent(
            self._states, self._metadata_server, self._file_server,
            self._metrics, protocol,
        )
        self.radio_frames = 0
        self.radio_bytes = 0

    # -- accessors -------------------------------------------------------------------

    @property
    def access_nodes(self) -> FrozenSet[NodeId]:
        return self._access_nodes

    @property
    def devices(self) -> Dict[NodeId, DTNNode]:
        return self._devices

    @property
    def metrics(self) -> MetricsCollector:
        return self._metrics

    def num_days(self) -> int:
        if self.config.num_days is not None:
            return self.config.num_days
        return max(1, int(-(-self.trace.duration // DAY)))

    # -- contact processing over the radio --------------------------------------------

    def run_contact(self, contact: Contact, now: float) -> None:
        """One contact: join radio, beacon, cyclic frame exchange."""
        members = contact.members
        radio = EmulatedRadio()
        if self.runtime_config.fault_hook is not None:
            radio.fault_hook = self.runtime_config.fault_hook  # type: ignore[assignment]
        for node in sorted(members):
            device = self._devices[node]
            device.begin_contact(members)
            radio.join(
                node,
                lambda sender, data, d=device: d.on_frame(sender, data, now),
            )

        # Hello handshake.
        for __ in range(self.runtime_config.hello_rounds):
            for node in sorted(members):
                radio.broadcast(node, self._devices[node].hello_bytes(now))

        # Frequent-contact query distribution (MBT): carried out by the
        # engine, as in the simulator — query storage is a local action
        # on hello contents already exchanged above.
        if self.config.variant.distributes_queries:
            states = {node: self._states[node] for node in members}
            for node, state in states.items():
                if state.selfish:
                    continue
                for peer, peer_state in states.items():
                    if peer != node and peer in state.frequent_contacts:
                        state.store_foreign_queries(
                            peer, peer_state.own_queries(now)
                        )

        budget = self._engine._contact_budget(contact)
        mode = self._engine.config.effective_scheduling()
        if mode is SchedulingMode.COORDINATOR:
            self._run_coordinated_phase(radio, members, now, budget.metadata, "metadata")
            self._rebeacon(radio, members, now)
            self._run_coordinated_phase(radio, members, now, budget.pieces, "piece")
        else:
            order = cyclic_order(members)
            self._run_phase(radio, members, order, now, budget.metadata, "metadata")
            self._rebeacon(radio, members, now)
            self._run_phase(radio, members, order, now, budget.pieces, "piece")

        self.radio_frames += radio.frames_sent
        self.radio_bytes += radio.bytes_sent
        for node in sorted(members):
            radio.leave(node)
            self._devices[node].end_contact()

    def _rebeacon(self, radio: EmulatedRadio, members: FrozenSet[NodeId], now: float) -> None:
        """Hello round between phases (§III-B: beacons at least 1 Hz).

        Metadata received seconds ago may have created new download
        requests; the refreshed hellos advertise them before the piece
        phase, matching the simulator's live request tracking.
        """
        for node in sorted(members):
            radio.broadcast(node, self._devices[node].hello_bytes(now))

    def _run_coordinated_phase(
        self,
        radio: EmulatedRadio,
        members: FrozenSet[NodeId],
        now: float,
        budget: int,
        phase: str,
    ) -> None:
        """Coordinator scheduling (§V-A) as a proposal protocol.

        Each slot, every member computes its best local candidate; the
        coordinator (deterministically: every member, since all share
        the same hello information) picks the globally best proposal,
        ties broken toward the lowest sender id, and that member
        transmits. One proposal round per slot — cheap control traffic
        a real deployment would piggyback on data frames.
        """
        for __ in range(budget):
            proposals = []
            for node in sorted(members):
                device = self._devices[node]
                if phase == "metadata":
                    proposal = device.propose_metadata(now, members)
                    if proposal is not None:
                        proposals.append((proposal[0], node, proposal[1], None))
                else:
                    proposal = device.propose_piece(now, members)
                    if proposal is not None:
                        proposals.append(
                            (proposal[0], node, proposal[1], proposal[2])
                        )
            if not proposals:
                break
            __, sender, uri, index = min(proposals, key=lambda p: (p[0], p[1]))
            device = self._devices[sender]
            if phase == "metadata":
                frame = device.metadata_frame_for(uri, now)
            else:
                assert index is not None
                frame = device.piece_frame_for(uri, index, now)
            radio.broadcast(sender, frame)
            device.note_own_broadcast(frame, members)
            if phase == "metadata":
                device.state.stats.metadata_sent += 1
                self._metrics.count_metadata_transmission()
            else:
                device.state.stats.pieces_sent += 1
                self._metrics.count_piece_transmission()

    def _run_phase(
        self,
        radio: EmulatedRadio,
        members: FrozenSet[NodeId],
        order: List[NodeId],
        now: float,
        budget: int,
        phase: str,
    ) -> None:
        spent = 0
        idle = 0
        position = 0
        while spent < budget and idle < len(order):
            node = order[position % len(order)]
            position += 1
            device = self._devices[node]
            if phase == "metadata":
                frame = device.next_metadata_frame(now, members)
            else:
                frame = device.next_piece_frame(now, members)
            if frame is None:
                idle += 1
                continue
            radio.broadcast(node, frame)
            device.note_own_broadcast(frame, members)
            if phase == "metadata":
                device.state.stats.metadata_sent += 1
                self._metrics.count_metadata_transmission()
            else:
                device.state.stats.pieces_sent += 1
                self._metrics.count_piece_transmission()
            spent += 1
            idle = 0

    # -- execution ---------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the whole trace over the radio."""
        sim = Simulator()
        days = self.num_days()
        horizon = days * DAY
        for day in range(days):
            noon = noon_of_day(day)
            sim.schedule(noon, self._make_noon(day, noon), priority=0)
            sim.schedule(noon, self._make_sync(noon), priority=1)
        for contact in self.trace:
            if contact.start >= horizon:
                break
            sim.schedule(
                contact.start, self._make_contact(contact), priority=2
            )
        sim.run(until=horizon, max_events=self.config.max_events)
        return self._metrics.result(
            {
                "num_days": float(days),
                "radio_frames": float(self.radio_frames),
                "radio_bytes": float(self.radio_bytes),
            }
        )

    def _make_noon(self, day: int, noon: float):
        def action() -> None:
            self._engine.expire_all(noon)
            self._metadata_server.refresh_popularities(noon)
            batch = self._generator.generate_day(day, noon)
            self._engine.on_daily_batch(batch, noon)

        return action

    def _make_sync(self, at: float):
        def action() -> None:
            for node in sorted(self._access_nodes):
                self._engine.internet_sync(node, at)

        return action

    def _make_contact(self, contact: Contact):
        return lambda: self.run_contact(contact, contact.start)
