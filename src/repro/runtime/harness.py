"""Trace-driven harness for the wire-level runtime.

:class:`RuntimeHarness` is a :class:`~repro.sim.runner.Simulation`
whose contacts travel as serialized frames over an
:class:`~repro.runtime.radio.EmulatedRadio`. Everything else is the
simulator's own code: node roles, the noon generation, Internet syncs,
the event loop and the delivery metrics over non-access nodes. Each
contact runs as follows:

1. the contact opens a broadcast domain with the members joined;
2. every member beacons a hello (the §III-B handshake), and under full
   MBT members store their frequent contacts' queries from it;
3. members transmit metadata then pieces in the §V-B cyclic order,
   each choosing its next frame from *local* knowledge only, until the
   per-contact budgets are spent or nobody has anything useful left.

``run`` returns the simulator's result with two extra keys,
``radio_frames`` and ``radio_bytes``. The engine counters
(``contacts_processed``, ``hello_exchanges``,
``metadata_transmissions``, ...) count the work done over the radio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.core.coordinator import cyclic_order
from repro.core.mbt import SchedulingMode
from repro.runtime.node import DTNNode
from repro.runtime.radio import EmulatedRadio
from repro.sim.metrics import SimulationResult
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import Contact, ContactTrace
from repro.types import NodeId

#: ``SimulationConfig`` fields the wire-level runtime does not model:
#: the radio is always a broadcast domain, nodes keep no credit ledger,
#: never choke and select every match, and there are no fault plans or
#: phase timers. A run that sets any of them would otherwise match the
#: clean run bit for bit. Of the ``adversaries`` plans only a
#: free-rider mix is modelled: ``DTNNode`` proposes no frame for a node
#: whose strategy does not serve.
UNSUPPORTED_FIELDS = (
    "broadcast",
    "encrypted_choking",
    "selection_policy",
    "faults",
    "credit_policy",
    "profile",
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime-specific knobs on top of :class:`SimulationConfig`."""

    #: Optional radio fault hook installed on every contact:
    #: (sender, frame bytes) -> delivered bytes, or None to drop.
    #: Corrupted frames are rejected by the codec at the receivers.
    fault_hook: Optional[object] = None


class RuntimeHarness(Simulation):
    """Wire-level :class:`~repro.sim.runner.Simulation`: contacts go over a radio."""

    def __init__(
        self,
        trace: ContactTrace,
        config: SimulationConfig,
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> None:
        default = SimulationConfig()
        unsupported = [
            name
            for name in UNSUPPORTED_FIELDS
            if getattr(config, name) != getattr(default, name)
        ]
        plan = config.adversaries
        if not plan.is_clean() and any(name != "free_rider" for name, __ in plan.mix):
            unsupported.append("adversaries (only a free_rider mix is modelled)")
        if unsupported:
            raise ValueError(
                "RuntimeHarness does not implement "
                + ", ".join(unsupported)
                + "; leave them at their defaults"
            )
        super().__init__(trace, config)
        self.runtime_config = runtime_config or RuntimeConfig()
        self._devices: Dict[NodeId, DTNNode] = {
            node: DTNNode(state, self._engine.config, self._metrics)
            for node, state in self._states.items()
        }
        self.radio_frames = 0
        self.radio_bytes = 0

    @property
    def devices(self) -> Dict[NodeId, DTNNode]:
        return self._devices

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        event_observer: Optional[Callable[[float, int], None]] = None,
    ) -> SimulationResult:
        """Execute the whole trace over the radio."""
        result = super().run(event_observer)
        extra = dict(result.extra)
        extra["radio_frames"] = float(self.radio_frames)
        extra["radio_bytes"] = float(self.radio_bytes)
        return replace(result, extra=extra)

    def _make_contacts_action(self, contacts, at: float):
        def action() -> None:
            self._engine.counters.contact_batches += 1
            for contact in contacts:
                self.run_contact(contact, at)

        return action

    # -- contact processing over the radio --------------------------------------------

    def run_contact(self, contact: Contact, now: float) -> None:
        """One contact: join radio, beacon, cyclic frame exchange."""
        members = contact.members
        counters = self._engine.counters
        counters.contacts_processed += 1
        counters.cliques_processed += 1
        counters.hello_exchanges += len(members)
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
        for node in sorted(members):
            radio.broadcast(node, self._devices[node].hello_bytes(now))

        # Frequent-contact query storage is a local action on the hello
        # contents exchanged above, so the engine's own step applies.
        self._engine.store_frequent_queries(
            {node: self._states[node] for node in members}, now
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

    def _count_send(
        self, device: DTNNode, frame: bytes, members: FrozenSet[NodeId], phase: str
    ) -> None:
        """Book one sent frame in the node, engine and run counters."""
        device.note_own_broadcast(frame, members)
        if phase == "metadata":
            device.state.stats.metadata_sent += 1
            self._engine.counters.metadata_transmissions += 1
        else:
            device.state.stats.pieces_sent += 1
            self._engine.counters.piece_transmissions += 1

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
            self._count_send(device, frame, members, phase)

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
            self._count_send(device, frame, members, phase)
            spent += 1
            idle = 0
