"""Transmission-medium models."""

from repro.net.medium import (
    BroadcastMedium,
    ContactBudget,
    PairwiseMedium,
    TransmissionMedium,
    budget_from_duration,
)

__all__ = [
    "BroadcastMedium",
    "ContactBudget",
    "PairwiseMedium",
    "TransmissionMedium",
    "budget_from_duration",
]
