"""Files, 256 KB pieces, deterministic payloads and SHA-1 checksums.

Per the paper (§III-B): "Large files are divided into pieces of 256KB.
Each file is associated with a metadata that contains ... the checksums
of its pieces." Payload bytes are generated deterministically from
``(uri, piece_index)`` so that any node — and the test-suite — can
regenerate and verify a piece without shipping real media data (see the
substitution table in DESIGN.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, Iterable, Iterator, List, Tuple

from functools import cached_property

from repro.types import Uri

#: Piece size from the paper, in bytes.
PIECE_SIZE: int = 256 * 1024

#: Length of the synthetic piece payloads, in bytes. Real pieces are
#: 256 KB; simulations only need payloads long enough to make
#: checksumming meaningful.
PAYLOAD_LENGTH: int = 64


class IntegrityError(ValueError):
    """Raised when a piece payload fails checksum verification."""


def num_pieces_for_size(size_bytes: int) -> int:
    """Number of 256 KB pieces needed for a file of ``size_bytes``."""
    if size_bytes <= 0:
        raise ValueError(f"file size must be positive, got {size_bytes}")
    return -(-size_bytes // PIECE_SIZE)  # ceiling division


def piece_payload(uri: Uri, index: int) -> bytes:
    """Deterministic pseudo-random payload for one piece.

    :data:`PAYLOAD_LENGTH` bytes of a SHA-256 stream keyed by
    ``(uri, index)``.
    """
    if index < 0:
        raise ValueError(f"piece index must be non-negative, got {index}")
    out = bytearray()
    counter = 0
    while len(out) < PAYLOAD_LENGTH:
        block = hashlib.sha256(f"{uri}#{index}#{counter}".encode()).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:PAYLOAD_LENGTH])


def piece_checksum(payload: bytes) -> str:
    """SHA-1 hex digest of a piece payload (BitTorrent-style, §II-B)."""
    return hashlib.sha1(payload).hexdigest()


def piece_checksums(uri: Uri, num_pieces: int) -> Tuple[str, ...]:
    """Checksums for all pieces of a file, in piece order."""
    return tuple(piece_checksum(piece_payload(uri, index)) for index in range(num_pieces))


@dataclass(frozen=True)
class FileDescriptor:
    """A published file: identity, size, title tokens and lifetime.

    Attributes
    ----------
    uri:
        Globally unique identifier, e.g. ``dtn://fox/f00042``.
    title_tokens:
        Tokenized title used for keyword matching.
    publisher:
        Publisher name (signs the file's metadata).
    size_bytes:
        Total size; defines the piece count.
    popularity:
        Probability that any given node is interested in this file,
        drawn from the paper's truncated-exponential model.
    created_at, ttl:
        Generation time and time-to-live in seconds; the file (and
        queries for it) expire at ``created_at + ttl``.
    """

    uri: Uri
    title_tokens: Tuple[str, ...]
    publisher: str
    size_bytes: int
    popularity: float
    created_at: float
    ttl: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError(f"popularity must be in [0,1], got {self.popularity}")
        if self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")

    @property
    def num_pieces(self) -> int:
        """Number of 256 KB pieces in this file."""
        return num_pieces_for_size(self.size_bytes)

    @property
    def expires_at(self) -> float:
        """Absolute expiry time."""
        return self.created_at + self.ttl

    @cached_property
    def token_set(self) -> FrozenSet[str]:
        """Title tokens as a set, for subset matching (cached)."""
        return frozenset(self.title_tokens)

    def is_live(self, now: float) -> bool:
        """Whether the file is already generated and not yet expired."""
        return self.created_at <= now < self.expires_at


def bit_indices(bitmap: int) -> Iterator[int]:
    """Yield the set bit positions of ``bitmap`` in ascending order."""
    while bitmap:
        low = bitmap & -bitmap
        yield low.bit_length() - 1
        bitmap ^= low


def pack_bitmap(indices: Iterable[int]) -> int:
    """Inverse of :func:`bit_indices`: fold indices into a bitmap."""
    bitmap = 0
    for index in indices:
        bitmap |= 1 << index
    return bitmap


class PieceStore:
    """Per-node storage of verified file pieces.

    Pieces are verified against the checksums carried in the file's
    metadata before being admitted (``add`` raises
    :class:`IntegrityError` on mismatch). The store answers the two
    questions the download scheduler asks: which pieces of a URI do I
    hold, and is the file complete.

    Held pieces are represented as one **bitmap int per URI** (bit *i*
    set = piece *i* stored): membership, completeness and missing-piece
    computations are single bitwise operations, and the download
    scheduler can combine whole cliques' holdings with ``|``/``&``/``~``
    instead of set algebra. :meth:`pieces_of` still materializes a
    frozenset for callers that want one.
    """

    def __init__(self) -> None:
        self._bitmaps: Dict[Uri, int] = {}
        self._completed: Dict[Uri, int] = {}

    def __contains__(self, uri: Uri) -> bool:
        return uri in self._bitmaps

    @property
    def uris(self) -> FrozenSet[Uri]:
        """URIs with at least one stored piece."""
        return frozenset(self._bitmaps)

    def bitmap_of(self, uri: Uri) -> int:
        """Bitmap of the stored pieces of ``uri`` (0 if none)."""
        return self._bitmaps.get(uri, 0)

    def has_piece(self, uri: Uri, index: int) -> bool:
        """Whether piece ``index`` of ``uri`` is stored."""
        return bool(self._bitmaps.get(uri, 0) >> index & 1)

    def count_of(self, uri: Uri) -> int:
        """Number of stored pieces of ``uri``."""
        return self._bitmaps.get(uri, 0).bit_count()

    def pieces_of(self, uri: Uri) -> FrozenSet[int]:
        """Indices of the stored pieces of ``uri`` (empty if none)."""
        return frozenset(bit_indices(self._bitmaps.get(uri, 0)))

    def add(self, uri: Uri, index: int, payload: bytes, expected_checksum: str) -> bool:
        """Verify and store one piece; return True if it was new.

        Raises
        ------
        IntegrityError
            If the payload does not hash to ``expected_checksum``.
        """
        if piece_checksum(payload) != expected_checksum:
            raise IntegrityError(f"piece {uri}#{index} failed checksum verification")
        return self.add_unverified(uri, index)

    def add_unverified(self, uri: Uri, index: int) -> bool:
        """Store a piece by reference (trusted source, e.g. Internet)."""
        mask = 1 << index
        held = self._bitmaps.get(uri, 0)
        if held & mask:
            return False
        self._bitmaps[uri] = held | mask
        return True

    def add_whole_file(self, uri: Uri, num_pieces: int) -> None:
        """Store every piece of a file (Internet direct download)."""
        self._bitmaps[uri] = self._bitmaps.get(uri, 0) | ((1 << num_pieces) - 1)
        self._completed[uri] = num_pieces

    def is_complete(self, uri: Uri, num_pieces: int) -> bool:
        """Whether all ``num_pieces`` pieces of ``uri`` are stored."""
        return self._bitmaps.get(uri, 0).bit_count() >= num_pieces

    def missing_pieces(self, uri: Uri, num_pieces: int) -> Iterator[int]:
        """Yield the indices of pieces of ``uri`` not yet stored."""
        return bit_indices(self.missing_bitmap(uri, num_pieces))

    def missing_bitmap(self, uri: Uri, num_pieces: int) -> int:
        """Bitmap of the pieces of ``uri`` not yet stored."""
        return ~self._bitmaps.get(uri, 0) & ((1 << num_pieces) - 1)

    def drop(self, uri: Uri) -> None:
        """Evict every piece of ``uri`` (e.g. on expiry)."""
        self._bitmaps.pop(uri, None)
        self._completed.pop(uri, None)

    def drop_piece(self, uri: Uri, index: int) -> bool:
        """Evict one piece; return True if it was stored."""
        held = self._bitmaps.get(uri, 0)
        mask = 1 << index
        if not held & mask:
            return False
        held &= ~mask
        if held:
            self._bitmaps[uri] = held
        else:
            del self._bitmaps[uri]
            self._completed.pop(uri, None)
        return True

    def drop_expired(self, live_uris: Container[Uri]) -> List[Uri]:
        """Evict all URIs not in ``live_uris``; return what was dropped."""
        dead = [uri for uri in self._bitmaps if uri not in live_uris]
        for uri in dead:
            self.drop(uri)
        return dead

    def total_pieces(self) -> int:
        """Total number of stored pieces across all URIs."""
        return sum(bitmap.bit_count() for bitmap in self._bitmaps.values())

    def clear(self) -> None:
        """Drop every stored piece (node crash with storage loss)."""
        self._bitmaps.clear()
        self._completed.clear()
