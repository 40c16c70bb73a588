"""Fake-file adversary: the pollution attack of §I.

"Sometimes, it is very difficult to choose the right metadata ...
there are fake files, files with inferior quality, and different files
with similar names" — and metadata carry "authentication information
... against fake publishers" (§III-B f).

This module builds that attack so the defence can be measured. A
*pirate* mirrors freshly published files: for a sampled subset of each
day's batch it crafts a fake metadata record with

* the **same title tokens** as the real file — every keyword query for
  the real file also matches the fake;
* its **own URI and self-consistent checksums** — the fake content
  verifies against the fake metadata, so checksum verification alone
  cannot reject it;
* an **inflated popularity claim** — to win popularity-ranked slots;
* **no valid publisher signature** — the only tell.

The adversary plan's ``polluter`` nodes (:mod:`repro.core.strategies`)
are the pirates: they carry the fake metadata and the full fake files,
serving them enthusiastically. Nodes that verify signatures drop the
fakes on arrival; nodes that do not waste queries, storage and piece
budget on them (the fake then satisfies the user's *keywords* but never
the measured ground-truth target).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.catalog.files import PIECE_SIZE, piece_checksums
from repro.catalog.generator import DailyBatch
from repro.catalog.metadata import Metadata
from repro.types import Uri

#: URI namespace of every pirated mirror. Ground-truth instrumentation
#: (never the protocol, which cannot see through a URI) uses it to
#: recognize fake traffic, e.g. the ``adversary.fake_*_transmissions``
#: counters in :mod:`repro.core.mbt`. Fakes are numbered
#: ``dtn://pirate/p000000``, ``dtn://pirate/p000001``, ...
PIRATE_URI_PREFIX = "dtn://pirate/"

#: Popularity every fake claims, to win popularity-ranked slots.
CLAIMED_POPULARITY = 0.9


@dataclass(frozen=True)
class FakeBatch:
    """Fake records mirroring one day's real batch."""

    day: int
    metadata: Sequence[Metadata]


class FakeFileFactory:
    """Deterministic generator of pollution for daily batches."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed ^ 0xFA4E)
        self._counter = 0

    def make_fakes(self, batch: DailyBatch, count: int) -> FakeBatch:
        """Craft up to ``count`` fakes mirroring files of ``batch``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        count = min(count, len(batch.metadata))
        targets = self._rng.sample(list(batch.metadata), count)
        fakes: List[Metadata] = []
        for real in targets:
            serial = self._counter
            self._counter += 1
            fake_uri = Uri(f"{PIRATE_URI_PREFIX}p{serial:06d}")
            fakes.append(
                Metadata(
                    uri=fake_uri,
                    name=real.name,  # same keywords: every query matches
                    publisher=real.publisher,  # impersonation attempt
                    description=real.description,
                    checksums=piece_checksums(fake_uri, real.num_pieces),
                    size_bytes=real.num_pieces * PIECE_SIZE,
                    created_at=real.created_at,
                    ttl=real.ttl,
                    popularity=CLAIMED_POPULARITY,
                    signature="",  # cannot forge the publisher secret
                )
            )
        return FakeBatch(day=batch.day, metadata=fakes)
