"""Transmission-medium models: broadcast vs pair-wise budgets.

The paper's §V argument: in a clique of *n* nodes sharing one wireless
channel of capacity *W*, broadcast-based communication lets one sender
reach the other *n−1* nodes at once, so per-node *received* bandwidth
is ``W·(n−1)/n``. Pair-wise communication delivers each transmission to
exactly one receiver, so per-node bandwidth is ``W/n``. Both medium
models below turn a per-contact transmission budget into a schedule of
(sender, receivers, item) deliveries honoring that difference: the
broadcast medium charges one budget unit per clique-wide delivery, the
pair-wise medium charges one unit per single-receiver delivery. The
closed-form capacities are in :mod:`repro.analysis.capacity`.

The paper's simulations use fixed per-contact budgets ("nodes can send
or receive a fixed number of metadata and files", §VI-A);
:func:`budget_from_duration` derives budgets from contact duration and
channel bandwidth for the medium-sensitivity experiments instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import FrozenSet

from repro.types import NodeId


@dataclass(frozen=True)
class ContactBudget:
    """Per-contact transmission budgets.

    ``metadata`` and ``pieces`` count *transmissions* (channel uses),
    not receptions: under broadcast one transmission serves the whole
    clique, under pair-wise it serves one receiver.
    """

    metadata: int
    pieces: int

    def __post_init__(self) -> None:
        if self.metadata < 0 or self.pieces < 0:
            raise ValueError("budgets must be non-negative")

    def scaled(self, factor: float) -> "ContactBudget":
        """Budget of a partially lost contact: floor both counts.

        Used by fault injection when a contact is truncated to
        ``factor`` of its duration. ``factor >= 1`` returns ``self``
        unchanged (a truncation never grants extra budget).
        """
        if factor < 0.0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        if factor >= 1.0:
            return self
        return ContactBudget(
            metadata=int(self.metadata * factor), pieces=int(self.pieces * factor)
        )


class TransmissionMedium(ABC):
    """How one transmission maps to receivers and budget cost."""

    @abstractmethod
    def receivers(self, sender: NodeId, clique: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
        """Nodes that receive a transmission from ``sender``."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in experiment tables."""


class BroadcastMedium(TransmissionMedium):
    """The paper's broadcast medium: every clique member receives."""

    def receivers(self, sender: NodeId, clique: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
        if sender not in clique:
            raise ValueError(f"sender {sender} not in clique {set(clique)}")
        return clique - {sender}

    @property
    def name(self) -> str:
        return "broadcast"


class PairwiseMedium(TransmissionMedium):
    """Baseline pair-wise medium: one designated receiver.

    ``receivers`` returns the lowest-id other clique member, so the
    choice is deterministic.
    """

    def receivers(self, sender: NodeId, clique: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
        if sender not in clique:
            raise ValueError(f"sender {sender} not in clique {set(clique)}")
        others = sorted(clique - {sender})
        if not others:
            return frozenset()
        return frozenset({others[0]})

    @property
    def name(self) -> str:
        return "pairwise"


def budget_from_duration(
    duration: float,
    bandwidth_bytes_per_s: float,
    metadata_size: int,
    piece_size: int,
    metadata_share: float = 0.2,
) -> ContactBudget:
    """Derive a :class:`ContactBudget` from contact length and bandwidth.

    The contact's byte volume is split between a discovery phase
    (``metadata_share`` of the time, per §V's "file discovery uses the
    starting period of each connection") and a download phase.
    """
    if duration <= 0 or bandwidth_bytes_per_s <= 0:
        raise ValueError("duration and bandwidth must be positive")
    if not 0.0 <= metadata_share <= 1.0:
        raise ValueError("metadata_share must be in [0, 1]")
    volume = duration * bandwidth_bytes_per_s
    metadata_budget = int(volume * metadata_share // max(metadata_size, 1))
    piece_budget = int(volume * (1.0 - metadata_share) // max(piece_size, 1))
    return ContactBudget(metadata=metadata_budget, pieces=piece_budget)
