"""Wire messages and transmission-medium models."""

from repro.net.medium import (
    BroadcastMedium,
    ContactBudget,
    PairwiseMedium,
    TransmissionMedium,
    budget_from_duration,
)
from repro.net.messages import (
    HELLO_INTERVAL,
    HelloMessage,
    MetadataMessage,
    PieceMessage,
)

__all__ = [
    "BroadcastMedium",
    "ContactBudget",
    "PairwiseMedium",
    "TransmissionMedium",
    "budget_from_duration",
    "HELLO_INTERVAL",
    "HelloMessage",
    "MetadataMessage",
    "PieceMessage",
]
