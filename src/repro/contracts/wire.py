"""The wire-schema registry: the metadata record and the codec's frame keys.

:mod:`repro.runtime.codec` serializes metadata records and the hello,
metadata and piece frames as JSON bodies for the device runtime. The
record fields and the frame readers are linked only by key spelling —
a renamed dataclass field or body key desynchronizes the emulated
radio from the simulated protocol without any test noticing until a
frame fails to decode. CON006 checks, against this registry:

* the :class:`Metadata` dataclass fields (``catalog/metadata.py``),
  the dict keys built by ``metadata_to_fields`` and the keys read back
  by ``metadata_from_fields`` (all three must match exactly);
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
