"""Wire messages exchanged among DTN nodes.

Paper §III-B: "Messages exchanged among the nodes include: (a) hello
messages, (b) metadata, and (c) file pieces. Nodes send hello messages
at least every second. A hello message includes: (a) node ID, (b) the
IDs of the nodes from which hello messages were received in the past 5
seconds, (c) query strings, and (d) the URIs of the downloading files."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.catalog.files import PIECE_SIZE
from repro.catalog.metadata import Metadata
from repro.types import NodeId, Uri

#: Nodes send hello messages at least every second (§III-B).
HELLO_INTERVAL: float = 1.0

#: Hellos advertise neighbors heard within this many seconds (§III-B).
HELLO_NEIGHBOR_WINDOW: float = 5.0

#: Rough wire sizes in bytes, used by bandwidth-derived budgets.
HELLO_BASE_SIZE: int = 64
QUERY_TOKEN_SIZE: int = 16
METADATA_BASE_SIZE: int = 2048


@dataclass(frozen=True)
class HelloMessage:
    """Periodic presence beacon.

    Attributes
    ----------
    sender:
        Node emitting the hello.
    heard:
        Nodes the sender received hellos from in the recent
        ``HELLO_NEIGHBOR_WINDOW`` (§III-B's neighbor list).
    query_tokens:
        The sender's standing query strings (token sets).
    downloading:
        URIs of files the sender is currently trying to download.
    sent_at:
        Emission time.
    """

    sender: NodeId
    heard: FrozenSet[NodeId]
    query_tokens: Tuple[FrozenSet[str], ...]
    downloading: FrozenSet[Uri]
    sent_at: float

    @property
    def size_bytes(self) -> int:
        """Approximate serialized size."""
        tokens = sum(len(ts) for ts in self.query_tokens)
        return (
            HELLO_BASE_SIZE
            + 4 * len(self.heard)
            + QUERY_TOKEN_SIZE * tokens
            + 32 * len(self.downloading)
        )


@dataclass(frozen=True)
class MetadataMessage:
    """One metadata record broadcast during the discovery phase."""

    sender: NodeId
    metadata: Metadata
    sent_at: float

    @property
    def size_bytes(self) -> int:
        """Approximate serialized size: base record plus checksums."""
        return METADATA_BASE_SIZE + 20 * len(self.metadata.checksums)


@dataclass(frozen=True)
class PieceMessage:
    """One file piece broadcast during the download phase.

    In MBT-QM the piece carries its file's metadata (``attached``),
    matching prior content-distribution systems where metadata only
    travel with content (§I, §VI-A).
    """

    sender: NodeId
    uri: Uri
    index: int
    payload: bytes
    checksum: str
    sent_at: float
    attached: Metadata | None = field(default=None)

    @property
    def size_bytes(self) -> int:
        """Wire size: a full 256 KB piece (payloads are stand-ins)."""
        attached = 0 if self.attached is None else METADATA_BASE_SIZE
        return PIECE_SIZE + attached
