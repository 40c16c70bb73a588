"""The seam manifest: reference twins that must stay compatible.

The naive ``*_reference`` twins remain the executable specification of
each optimized path. The pairing is duck-typed — nothing but
convention keeps their signatures aligned — so CON005 checks each
manifest entry against the parsed source: the reference twin's
parameter list must be an ordered prefix of the optimized
implementation's (the optimized path may add trailing opt-in
parameters such as ``view``).

Paths are relative to the ``repro`` package root. A missing symbol —
or a missing file while its counterpart still exists — is itself a
CON005 finding, so deleting half a seam cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SeamSpec:
    """One optimized-function / reference-twin contract."""

    name: str
    left: Tuple[str, str]  # (path relative to the repro root, qualname)
    right: Tuple[str, str]


SEAM_REGISTRY: Tuple[SeamSpec, ...] = (
    SeamSpec(
        name="metadata builder reference twin",
        left=("core/discovery.py", "build_metadata_candidates"),
        right=("core/discovery.py", "build_metadata_candidates_reference"),
    ),
    SeamSpec(
        name="piece builder reference twin",
        left=("core/download.py", "build_piece_candidates"),
        right=("core/download.py", "build_piece_candidates_reference"),
    ),
    SeamSpec(
        name="contact extraction reference twin",
        left=("traces/mobility.py", "_extract_contacts"),
        right=("traces/mobility.py", "_extract_contacts_reference"),
    ),
)
