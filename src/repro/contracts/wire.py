"""The wire-schema registry: frame keys shared by messages and codec.

:mod:`repro.net.messages` defines the in-simulation message
dataclasses; :mod:`repro.runtime.codec` serializes the same content as
JSON frame bodies for the asyncio runtime. The two are linked only by
key spelling — a renamed dataclass field or body key desynchronizes
the emulated radio from the simulated one without any test noticing
until a frame fails to decode. CON006 checks, against this registry:

* the :class:`Metadata` dataclass fields (``catalog/metadata.py``),
  the dict keys built by ``metadata_to_fields`` and the keys read back
  by ``metadata_from_fields`` (all three must match exactly);
* each message dataclass's ordered field list;
* the body keys emitted by each frame builder, plus the envelope keys
  every frame carries.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Serialized field set of one metadata record — the Metadata
#: dataclass, metadata_to_fields and metadata_from_fields agree on it.
METADATA_RECORD_FIELDS: Tuple[str, ...] = (
    "uri",
    "name",
    "publisher",
    "description",
    "checksums",
    "size_bytes",
    "created_at",
    "ttl",
    "popularity",
    "signature",
)

#: Ordered dataclass fields of each wire message.
MESSAGE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "HelloMessage": (
        "sender",
        "heard",
        "query_tokens",
        "downloading",
        "sent_at",
    ),
    "MetadataMessage": ("sender", "metadata", "sent_at"),
    "PieceMessage": (
        "sender",
        "uri",
        "index",
        "payload",
        "checksum",
        "sent_at",
        "attached",
    ),
}

#: Keys every encoded frame body carries (see ``encode_frame``).
FRAME_ENVELOPE_KEYS: Tuple[str, ...] = ("type", "sender", "sent_at")

#: Type-specific body keys emitted by each frame builder.
FRAME_BODY_KEYS: Dict[str, Tuple[str, ...]] = {
    "build_hello": (
        "heard",
        "query_tokens",
        "carried_query_tokens",
        "downloading",
        "held_uris",
        "have",
    ),
    "build_metadata_frame": ("record",),
    "build_piece_frame": ("record", "index", "payload_b64"),
}
