"""Trace-driven harness for the wire-level runtime.

:class:`RuntimeHarness` is a :class:`~repro.sim.runner.Simulation`
whose contacts travel as serialized frames over an
:class:`~repro.runtime.radio.EmulatedRadio`. Everything else is the
simulator's own code: node roles, the noon generation, Internet syncs,
the event loop and the delivery metrics over non-access nodes. Each
contact runs as follows:

1. the contact opens a broadcast domain with the members joined;
2. every member beacons a hello (the §III-B handshake); members
   remember the requests the hellos advertise, and under full MBT
   store their frequent contacts' queries;
3. members transmit metadata (not under MBT-QM), beacon again, then
   transmit pieces, each proposing its next frame from *local*
   knowledge only, under the configured scheduling mode, until the
   per-contact budgets are spent or nobody has anything useful left.

``run`` returns the simulator's result with two extra keys,
``radio_frames`` and ``radio_bytes``. The engine counters
(``contacts_processed``, ``hello_exchanges``,
``metadata_transmissions``, ...) count the work done over the radio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Optional

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
        """One contact: join the radio, beacon, then run the phases."""
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

        self._beacon(radio, members, now)  # the §III-B handshake

        # Frequent-contact query storage is a local action on the hello
        # contents exchanged above, so the engine's own step applies.
        self._engine.store_frequent_queries(
            {node: self._states[node] for node in members}, now
        )

        budget = self._engine._contact_budget(contact)
        if self._engine.config.effective_scheduling() is SchedulingMode.COORDINATOR:
            run_phase = self._run_coordinated_phase
        else:
            run_phase = self._run_cyclic_phase
        if self._engine.config.variant.distributes_metadata:
            run_phase(radio, members, now, budget.metadata, "metadata")
            self._beacon(radio, members, now)
        run_phase(radio, members, now, budget.pieces, "piece")

        self.radio_frames += radio.frames_sent
        self.radio_bytes += radio.bytes_sent
        for node in sorted(members):
            radio.leave(node)

    def _beacon(self, radio: EmulatedRadio, members: FrozenSet[NodeId], now: float) -> None:
        """One hello round (§III-B: beacons at least 1 Hz).

        A round also runs between the phases: metadata received seconds
        ago may have created new download requests, and the refreshed
        hellos advertise them before the piece phase, matching the
        simulator's live request tracking.
        """
        for node in sorted(members):
            radio.broadcast(node, self._devices[node].hello_bytes(now))

    def _propose(self, node: NodeId, now: float, phase: str):
        """``node``'s best candidate as (key, uri, piece index or None)."""
        device = self._devices[node]
        if phase == "metadata":
            proposal = device.propose_metadata(now)
            return None if proposal is None else (proposal[0], proposal[1], None)
        return device.propose_piece(now)

    def _send(self, radio: EmulatedRadio, node: NodeId, proposal, now: float) -> None:
        """Broadcast ``node``'s proposed frame; book it in the node, engine and run counters."""
        __, uri, index = proposal
        device = self._devices[node]
        if index is None:
            frame = device.metadata_frame_for(uri, now)
            device.state.stats.metadata_sent += 1
            self._engine.counters.metadata_transmissions += 1
        else:
            frame = device.piece_frame_for(uri, index, now)
            device.state.stats.pieces_sent += 1
            self._engine.counters.piece_transmissions += 1
        radio.broadcast(node, frame)
        device.mark_clique_received(uri, index)

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
            offers = [
                (proposal, node)
                for node in sorted(members)
                if (proposal := self._propose(node, now, phase)) is not None
            ]
            if not offers:
                break
            proposal, sender = min(offers)
            self._send(radio, sender, proposal, now)

    def _run_cyclic_phase(
        self,
        radio: EmulatedRadio,
        members: FrozenSet[NodeId],
        now: float,
        budget: int,
        phase: str,
    ) -> None:
        """Cyclic scheduling (§V-B): members take turns in the cyclic order."""
        order = cyclic_order(members)
        spent = 0
        idle = 0
        position = 0
        while spent < budget and idle < len(order):
            node = order[position % len(order)]
            position += 1
            proposal = self._propose(node, now, phase)
            if proposal is None:
                idle += 1
                continue
            self._send(radio, node, proposal, now)
            spent += 1
            idle = 0
