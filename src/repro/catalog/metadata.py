"""Metadata records with publisher authentication.

A metadata record (§III-B) carries: (a) the file name, (b) the
publisher, (c) a human-readable description, (d) the file's URI,
(e) the checksums of its pieces, and (f) authentication information of
the metadata against fake publishers. We implement (f) as an HMAC over
the canonical serialization, keyed by a per-publisher secret held in a
:class:`PublisherRegistry` — a stand-in for real public-key signatures
that exercises the same accept/reject code path.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, Optional, Tuple

from repro.catalog.files import FileDescriptor, piece_checksums
from repro.types import Uri


@dataclass(frozen=True)
class Metadata:
    """Advertisement of a file, distributed independently of the file.

    ``signature`` is filled in by :func:`sign_metadata`; an unsigned
    record has ``signature=""`` and fails verification.

    ``expires_at``, the absolute expiry time of the advertised file
    (``created_at + ttl``), is a plain attribute set once at
    construction: liveness checks read it millions of times per run.
    It is not a dataclass field, so it takes no part in equality,
    hashing or the wire format.
    """

    uri: Uri
    name: str
    publisher: str
    description: str
    checksums: Tuple[str, ...]
    size_bytes: int
    created_at: float
    ttl: float
    popularity: float = 0.0
    signature: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "expires_at", self.created_at + self.ttl)

    @property
    def num_pieces(self) -> int:
        """Number of pieces the file has (one checksum per piece)."""
        return len(self.checksums)

    @cached_property
    def token_set(self) -> FrozenSet[str]:
        """Tokenized name for keyword matching.

        Cached per record: query matching consults it once per
        (candidate, query) pair in the contact hot path, and the record
        is immutable, so tokenizing the name more than once is waste.
        """
        return frozenset(self.name.lower().split())

    def is_live(self, now: float) -> bool:
        """Whether the advertised file has not yet expired."""
        return now < self.expires_at

    def canonical_bytes(self) -> bytes:
        """Canonical serialization covered by the signature.

        Popularity is deliberately excluded: it is a mutable network
        statistic updated by the server, not part of the publisher's
        statement.
        """
        return _canonical_bytes(
            self.uri,
            self.name,
            self.publisher,
            self.description,
            self.checksums,
            self.size_bytes,
            self.created_at,
            self.ttl,
        )

    def with_popularity(self, popularity: float) -> "Metadata":
        """Return a copy with an updated popularity estimate."""
        return replace(self, popularity=popularity)


def _canonical_bytes(
    uri: str,
    name: str,
    publisher: str,
    description: str,
    checksums: Tuple[str, ...],
    size_bytes: int,
    created_at: float,
    ttl: float,
) -> bytes:
    """The bytes :meth:`Metadata.canonical_bytes` returns for these fields."""
    body = "|".join(
        (
            uri,
            name,
            publisher,
            description,
            ",".join(checksums),
            str(size_bytes),
            f"{created_at:.6f}",
            f"{ttl:.6f}",
        )
    )
    return body.encode()


def _signature(secret: bytes, canonical: bytes) -> str:
    """HMAC-SHA256 of a record's canonical bytes under a publisher secret."""
    return hmac.new(secret, canonical, hashlib.sha256).hexdigest()


class PublisherRegistry:
    """Holds per-publisher signing secrets and trusted identities.

    Every node is assumed to know the trusted publishers (the paper's
    "well known organizations or companies, such as FOX and ABC").
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._secrets: Dict[str, bytes] = {}
        # Verification outcomes per record object, keyed by ``id``: a hit
        # costs an int lookup instead of hashing every field. Each entry
        # holds its record, so the id cannot be reused while cached; an
        # equal-but-distinct or tampered copy misses and is checked in
        # full. Safe to memoize: records are immutable and a registered
        # publisher's secret never changes (``register`` keeps existing
        # secrets), so a cached outcome is answered before the trust
        # check. Unknown-publisher rejections are NOT cached — the
        # publisher could register later.
        self._verify_cache: Dict[int, Tuple["Metadata", bool]] = {}

    def forget_expired(self, now: float) -> None:
        """Drop the cached outcomes of records expired at ``now``.

        An expired record that comes back is verified again, and the
        liveness check rejects it as before, so no result changes.
        """
        cache = self._verify_cache
        for key in [k for k, (record, __) in cache.items() if record.expires_at <= now]:
            del cache[key]

    def register(self, publisher: str) -> None:
        """Create (or keep) the signing secret of ``publisher``."""
        if publisher not in self._secrets:
            raw = f"publisher:{publisher}:{self._master_seed}".encode()
            self._secrets[publisher] = hashlib.sha256(raw).digest()

    def is_trusted(self, publisher: str) -> bool:
        return publisher in self._secrets

    def secret_for(self, publisher: str) -> bytes:
        """Return the signing secret; raises KeyError for unknown names."""
        return self._secrets[publisher]

    @property
    def publishers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._secrets))


def sign_metadata(metadata: Metadata, registry: PublisherRegistry) -> Metadata:
    """Return a signed copy of ``metadata``.

    Raises
    ------
    KeyError
        If the publisher is not registered.
    """
    secret = registry.secret_for(metadata.publisher)
    return replace(metadata, signature=_signature(secret, metadata.canonical_bytes()))


def verify_metadata(metadata: Metadata, registry: PublisherRegistry) -> bool:
    """Check the signature against the claimed publisher's secret.

    Returns ``False`` for unknown publishers, unsigned records and any
    field tampering — the fake-publisher defence of §III-B item (f).
    """
    cache = registry._verify_cache
    cached = cache.get(id(metadata))
    if cached is not None:
        return cached[1]
    if not registry.is_trusted(metadata.publisher) or not metadata.signature:
        return False
    expected = _signature(registry.secret_for(metadata.publisher), metadata.canonical_bytes())
    ok = hmac.compare_digest(expected, metadata.signature)
    cache[id(metadata)] = (metadata, ok)
    return ok


def metadata_for_file(
    descriptor: FileDescriptor,
    description: str,
    registry: Optional[PublisherRegistry] = None,
) -> Metadata:
    """Build (and optionally sign) the metadata of a file descriptor.

    A signed record is built once, with the signature computed from
    its fields first, instead of signing an unsigned copy.
    """
    uri = descriptor.uri
    name = " ".join(descriptor.title_tokens)
    publisher = descriptor.publisher
    checksums = piece_checksums(uri, descriptor.num_pieces)
    size_bytes = descriptor.size_bytes
    created_at = descriptor.created_at
    ttl = descriptor.ttl
    signature = ""
    if registry is not None:
        registry.register(publisher)
        signature = _signature(
            registry.secret_for(publisher),
            _canonical_bytes(
                uri, name, publisher, description, checksums, size_bytes, created_at, ttl
            ),
        )
    return Metadata(
        uri=uri,
        name=name,
        publisher=publisher,
        description=description,
        checksums=checksums,
        size_bytes=size_bytes,
        created_at=created_at,
        ttl=ttl,
        popularity=descriptor.popularity,
        signature=signature,
    )
