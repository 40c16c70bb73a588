"""The seam manifest: dual implementations that must stay compatible.

The catalog knob swaps the sharded server in for the flat one, and the
naive ``*_reference`` twins remain the executable specification of each
optimized path. Both are duck-typed — nothing but convention keeps
their signatures aligned — so CON005 checks each manifest entry against
the parsed source:

``"reference"``
    the reference twin's parameter list must be an ordered prefix of
    the optimized implementation's (the optimized path may add
    trailing opt-in parameters such as ``view``);
``"class"``
    every public method of the left class must exist on the right
    class with an identical ordered parameter list (the drop-in may
    add extra methods, e.g. ``shard_sizes``).

Paths are relative to the ``repro`` package root. A missing symbol —
or a missing file while its counterpart still exists — is itself a
CON005 finding, so deleting half a seam cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SeamSpec:
    """One dual-implementation contract."""

    name: str
    kind: str  # "reference" | "class"
    left: Tuple[str, str]  # (path relative to the repro root, qualname)
    right: Tuple[str, str]


SEAM_REGISTRY: Tuple[SeamSpec, ...] = (
    SeamSpec(
        name="metadata builder reference twin",
        kind="reference",
        left=("core/discovery.py", "build_metadata_candidates"),
        right=("core/discovery.py", "build_metadata_candidates_reference"),
    ),
    SeamSpec(
        name="piece builder reference twin",
        kind="reference",
        left=("core/download.py", "build_piece_candidates"),
        right=("core/download.py", "build_piece_candidates_reference"),
    ),
    SeamSpec(
        name="contact extraction reference twin",
        kind="reference",
        left=("traces/mobility.py", "_extract_contacts"),
        right=("traces/mobility.py", "_extract_contacts_reference"),
    ),
    SeamSpec(
        name="flat/sharded metadata catalog",
        kind="class",
        left=("catalog/server.py", "MetadataServer"),
        right=("catalog/dht.py", "ShardedMetadataServer"),
    ),
)
