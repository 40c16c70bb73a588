"""Deterministic fault injection for the simulated world.

The paper evaluates MBT on clean contact traces with lossless
transmissions, yet its whole premise is opportunistic networking over
flaky radios and unreliable peers. This module adds the missing
failure regimes as a *seeded, declarative* plan:

* **transmission loss** — each receiver of a broadcast/unicast
  independently misses the frame with probability ``loss_rate``;
* **piece corruption** — a piece transmission is corrupted in flight
  with probability ``corruption_rate``; every receiver then rejects it
  through the existing checksum-verification path
  (:meth:`~repro.core.node.NodeState.accept_piece` /
  ``NodeStats.checksum_rejections``) and the piece is never stored;
* **contact flapping** — a contact is lost entirely
  (``contact_drop_rate``) or truncated to a random fraction of its
  duration (``contact_truncation_rate``), which also scales its
  transmission budgets;
* **node churn** — per node and day, with probability ``churn_rate``
  the node crashes at a uniform instant, stays down for
  ``churn_downtime_days`` (contacts and Internet syncs skip it) and is
  then reborn, optionally with its learned state wiped
  (``wipe_on_crash``).

Determinism
-----------
A :class:`FaultPlan` is a frozen, picklable dataclass and therefore
part of a :class:`~repro.exec.RunSpec`'s identity. The
:class:`FaultInjector` derives one independent ``random.Random``
stream per fault category from ``(plan.seed, run_seed)`` via SHA-256,
and every draw happens at a deterministic point of the (itself
deterministic) event loop — so a fault-injected run is exactly
reproducible for a fixed seed, independent of worker process or job
count.

The all-zero plan (:meth:`FaultPlan.is_clean`) is the default and is
never instantiated into an injector, so the clean path stays bitwise
identical to fault-free builds (no extra counters, no RNG draws).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.traces.base import Contact
from repro.types import DAY, NodeId

__all__ = ["FaultPlan", "FaultInjector", "corrupt_payload", "FAULT_COUNTER_NAMES"]

#: Truncated contacts keep a uniform fraction of their duration in this
#: range (never zero — the radio came up at least briefly).
_TRUNCATION_KEEP = (0.1, 0.9)

#: Counter names an active injector reports (surfaced by the runner as
#: ``faults.<name>`` in ``SimulationResult.counters``).
FAULT_COUNTER_NAMES: Tuple[str, ...] = (
    "contacts_dropped",
    "contacts_truncated",
    "contacts_skipped_down",
    "metadata_losses",
    "piece_losses",
    "pieces_corrupted",
    "corrupt_receipts",
    "crashes",
    "rebirths",
)


def _derive(*components: object) -> int:
    """Stable 64-bit stream seed from arbitrary components (SHA-256)."""
    digest = hashlib.sha256(repr(components).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def corrupt_payload(payload: bytes) -> bytes:
    """Flip the last byte of a payload (guaranteed checksum mismatch)."""
    if not payload:
        return b"\xff"
    return payload[:-1] + bytes([payload[-1] ^ 0xFF])


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, picklable description of the faults to inject.

    All rates are probabilities in ``[0, 1]``; the default plan is
    all-zero (no faults, no behavior change). The plan travels inside
    :class:`~repro.sim.runner.SimulationConfig`, so it is part of a
    run's identity for reproducibility.
    """

    #: Per-receiver probability that a transmission is lost.
    loss_rate: float = 0.0
    #: Per-piece-transmission probability of in-flight corruption.
    corruption_rate: float = 0.0
    #: Probability that a trace contact never happens (radio flap).
    contact_drop_rate: float = 0.0
    #: Probability that a contact is truncated to a random fraction.
    contact_truncation_rate: float = 0.0
    #: Per-node-per-day crash probability.
    churn_rate: float = 0.0
    #: Downtime after a crash, in days.
    churn_downtime_days: float = 0.5
    #: Whether a crash wipes the node's learned state (stores, heard
    #: requests, neighbor table); own queries survive the reboot.
    wipe_on_crash: bool = True
    #: Fault-stream seed component (combined with the run seed).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "loss_rate",
            "corruption_rate",
            "contact_drop_rate",
            "contact_truncation_rate",
            "churn_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.churn_downtime_days <= 0:
            raise ValueError("churn_downtime_days must be positive")

    def is_clean(self) -> bool:
        """True when no fault can ever fire (the bitwise-clean path)."""
        return (
            self.loss_rate == 0.0
            and self.corruption_rate == 0.0
            and self.contact_drop_rate == 0.0
            and self.contact_truncation_rate == 0.0
            and self.churn_rate == 0.0
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` with per-category RNG streams.

    One injector serves one simulation run. Construction is cheap;
    every decision is drawn lazily at the (deterministic) moment the
    simulated world asks for it. Counters accumulate per category and
    are merged into ``SimulationResult.extra`` as ``faults.*`` keys by
    the runner.
    """

    def __init__(self, plan: FaultPlan, run_seed: int) -> None:
        self.plan = plan
        self._rng_contact = random.Random(_derive("faults", plan.seed, run_seed, "contact"))
        self._rng_loss = random.Random(_derive("faults", plan.seed, run_seed, "loss"))
        self._rng_corrupt = random.Random(_derive("faults", plan.seed, run_seed, "corrupt"))
        self._rng_churn = random.Random(_derive("faults", plan.seed, run_seed, "churn"))
        self.counters: Dict[str, int] = {name: 0 for name in FAULT_COUNTER_NAMES}

    def count(self, name: str, increment: int = 1) -> None:
        """Bump a fault counter (engine callback for receiver-side events)."""
        self.counters[name] = self.counters.get(name, 0) + increment

    # -- contact-level faults -----------------------------------------------------

    def transform_contact(self, contact: Contact) -> Tuple[Optional[Contact], float]:
        """Apply flapping to one contact.

        Returns ``(None, 0.0)`` when the contact is dropped, otherwise
        the (possibly truncated) contact and the kept duration
        fraction; fixed per-contact budgets are scaled by that fraction
        (duration-derived budgets shrink via the shorter contact
        itself).
        """
        plan = self.plan
        if plan.contact_drop_rate > 0 and self._rng_contact.random() < plan.contact_drop_rate:
            self.count("contacts_dropped")
            return None, 0.0
        if (
            plan.contact_truncation_rate > 0
            and self._rng_contact.random() < plan.contact_truncation_rate
        ):
            keep = self._rng_contact.uniform(*_TRUNCATION_KEEP)
            self.count("contacts_truncated")
            truncated = Contact(
                contact.start,
                contact.start + contact.duration * keep,
                contact.members,
            )
            return truncated, keep
        return contact, 1.0

    # -- transmission-level faults ------------------------------------------------

    def deliverable(
        self, receivers: FrozenSet[NodeId], kind: str
    ) -> FrozenSet[NodeId]:
        """Subset of ``receivers`` that actually hear a transmission.

        ``kind`` is ``"metadata"`` or ``"piece"`` (for the loss
        counters). Receivers are visited in sorted order so the RNG
        stream is independent of set iteration order.
        """
        if self.plan.loss_rate <= 0 or not receivers:
            return receivers
        kept = [
            r for r in sorted(receivers) if self._rng_loss.random() >= self.plan.loss_rate
        ]
        lost = len(receivers) - len(kept)
        if lost:
            self.count(f"{kind}_losses", lost)
        return frozenset(kept)

    def corrupt_transmission(self) -> bool:
        """Whether the next piece transmission is corrupted in flight."""
        if self.plan.corruption_rate <= 0:
            return False
        corrupted = self._rng_corrupt.random() < self.plan.corruption_rate
        if corrupted:
            self.count("pieces_corrupted")
        return corrupted

    # -- churn --------------------------------------------------------------------

    def churn_schedule(
        self, nodes: Sequence[NodeId], num_days: int
    ) -> List[Tuple[NodeId, float, float]]:
        """Precompute ``(node, crash_time, rebirth_time)`` churn events.

        For each day and node (sorted, so draws are order-stable) the
        node crashes with probability ``churn_rate`` at a uniform
        instant of that day. Crashes that would land while the node is
        already down are skipped. The schedule is returned sorted by
        crash time.
        """
        plan = self.plan
        if plan.churn_rate <= 0:
            return []
        downtime = plan.churn_downtime_days * DAY
        schedule: List[Tuple[NodeId, float, float]] = []
        down_until: Dict[NodeId, float] = {}
        for day in range(num_days):
            for node in sorted(nodes):
                if self._rng_churn.random() >= plan.churn_rate:
                    continue
                at = day * DAY + self._rng_churn.random() * DAY
                if at < down_until.get(node, -1.0):
                    continue
                schedule.append((node, at, at + downtime))
                down_until[node] = at + downtime
        schedule.sort(key=lambda entry: (entry[1], entry[0]))
        return schedule
