"""Wire format for MBT frames.

Layout of every frame::

    MAGIC (4 bytes, b"MBT1") | LENGTH (4 bytes, big-endian) |
    CRC32 (4 bytes, of the body) | BODY (LENGTH bytes, UTF-8 JSON)

The JSON body always carries ``type`` (one of :class:`FrameType`),
``sender`` and ``sent_at``, plus type-specific fields. Binary piece
payloads are base64-encoded inside the body — simple, debuggable, and
adequate for an emulated radio (a production build would swap the JSON
body for a compact binary encoding behind the same functions).

Decoding is strict: bad magic, truncated frames, CRC mismatches and
unknown frame types raise :class:`CodecError` so a deployment never
acts on corrupted radio input.
"""

from __future__ import annotations

import base64
import binascii
import enum
import json
import struct
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Tuple

from repro.catalog.metadata import Metadata
from repro.types import NodeId, Uri

MAGIC = b"MBT1"
_HEADER = struct.Struct(">4sII")  # magic, body length, crc32


class CodecError(ValueError):
    """Raised for any malformed frame."""


class FrameType(enum.Enum):
    HELLO = "hello"
    METADATA = "metadata"
    PIECE = "piece"


@dataclass(frozen=True)
class Frame:
    """A decoded frame: type, sender, timestamp and the body fields."""

    frame_type: FrameType
    sender: NodeId
    sent_at: float
    body: Dict[str, Any]

    def field(self, name: str) -> Any:
        try:
            return self.body[name]
        except KeyError as exc:
            raise CodecError(f"frame missing field {name!r}") from exc


def _encode_body(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, separators=(",", ":"), sort_keys=True).encode()


def encode_frame(
    frame_type: FrameType,
    sender: NodeId,
    sent_at: float,
    fields: Dict[str, Any],
) -> bytes:
    """Serialize one frame to bytes."""
    body = {"type": frame_type.value, "sender": int(sender), "sent_at": sent_at}
    body.update(fields)
    encoded = _encode_body(body)
    crc = binascii.crc32(encoded) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, len(encoded), crc) + encoded


def decode_frame(data: bytes) -> Frame:
    """Parse and verify one frame.

    Raises
    ------
    CodecError
        On bad magic, truncation, CRC mismatch, invalid JSON or an
        unknown frame type.
    """
    if len(data) < _HEADER.size:
        raise CodecError(f"frame too short: {len(data)} bytes")
    magic, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    body_bytes = data[_HEADER.size:]
    if len(body_bytes) != length:
        raise CodecError(f"length mismatch: header says {length}, got {len(body_bytes)}")
    if binascii.crc32(body_bytes) & 0xFFFFFFFF != crc:
        raise CodecError("CRC mismatch: frame corrupted")
    try:
        body = json.loads(body_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"invalid body: {exc}") from exc
    try:
        frame_type = FrameType(body["type"])
    except (KeyError, ValueError) as exc:
        raise CodecError(f"unknown frame type: {body.get('type')!r}") from exc
    if "sender" not in body or "sent_at" not in body:
        raise CodecError("frame missing sender/sent_at")
    return Frame(
        frame_type=frame_type,
        sender=NodeId(int(body["sender"])),
        sent_at=float(body["sent_at"]),
        body=body,
    )


# ------------------------------------------------------------------ metadata

#: The wire record is the :class:`Metadata` dataclass, field for field.
_METADATA_FIELDS = tuple(f.name for f in dataclass_fields(Metadata))


def metadata_to_fields(record: Metadata) -> Dict[str, Any]:
    """JSON-safe representation of a metadata record: every dataclass field.

    The tuple of checksums encodes as a JSON list.
    """
    return {name: getattr(record, name) for name in _METADATA_FIELDS}


def metadata_from_fields(fields: Dict[str, Any]) -> Metadata:
    """Rebuild a metadata record from frame fields.

    Raises
    ------
    CodecError
        On missing keys or wrong field types.
    """
    try:
        return Metadata(
            uri=Uri(str(fields["uri"])),
            name=str(fields["name"]),
            publisher=str(fields["publisher"]),
            description=str(fields["description"]),
            checksums=tuple(str(c) for c in fields["checksums"]),
            size_bytes=int(fields["size_bytes"]),
            created_at=float(fields["created_at"]),
            ttl=float(fields["ttl"]),
            popularity=float(fields["popularity"]),
            signature=str(fields["signature"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"bad metadata fields: {exc}") from exc


# ------------------------------------------------------------------ builders


def build_hello(
    sender: NodeId,
    sent_at: float,
    heard: Tuple[int, ...],
    query_tokens: Tuple[Tuple[str, ...], ...],
    downloading: Tuple[str, ...],
    held_uris: Tuple[str, ...],
    have: Dict[str, Tuple[int, ...]],
    carried_query_tokens: Tuple[Tuple[str, ...], ...] = (),
) -> bytes:
    """HELLO: presence + §III-B fields + store digests.

    ``query_tokens`` are the sender's own queries and
    ``carried_query_tokens`` the ones carried for frequent contacts
    (full MBT) — peers rank own requests above carried ones (§IV-A).
    ``downloading`` lists the URIs the sender wants (§III-B d);
    ``held_uris`` is the metadata-store digest; ``have`` maps every
    URI with stored pieces to its piece indices (BitTorrent-style
    have-map) so peers never retransmit pieces the sender holds.
    """
    return encode_frame(
        FrameType.HELLO,
        sender,
        sent_at,
        {
            "heard": sorted(heard),
            "query_tokens": [sorted(tokens) for tokens in query_tokens],
            "carried_query_tokens": [
                sorted(tokens) for tokens in carried_query_tokens
            ],
            "downloading": sorted(downloading),
            "held_uris": sorted(held_uris),
            "have": {uri: sorted(idx) for uri, idx in have.items()},
        },
    )


def build_metadata_frame(sender: NodeId, sent_at: float, record: Metadata) -> bytes:
    """METADATA: one advertised record."""
    return encode_frame(
        FrameType.METADATA, sender, sent_at, {"record": metadata_to_fields(record)}
    )


def build_piece_frame(
    sender: NodeId,
    sent_at: float,
    record: Metadata,
    index: int,
    payload: bytes,
) -> bytes:
    """PIECE: one file piece with its metadata attached."""
    return encode_frame(
        FrameType.PIECE,
        sender,
        sent_at,
        {
            "record": metadata_to_fields(record),
            "index": index,
            "payload_b64": base64.b64encode(payload).decode(),
        },
    )


def piece_payload_from_frame(frame: Frame) -> bytes:
    """Extract and decode the piece payload."""
    try:
        return base64.b64decode(frame.field("payload_b64"), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise CodecError(f"bad piece payload: {exc}") from exc
