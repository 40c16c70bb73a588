"""Unit tests for files, pieces, payloads and the piece store."""

from __future__ import annotations

import pytest

from repro.catalog.files import (
    PAYLOAD_LENGTH,
    PIECE_SIZE,
    FileDescriptor,
    IntegrityError,
    PieceStore,
    num_pieces_for_size,
    piece_checksum,
    piece_checksums,
    piece_payload,
)
from repro.types import DAY, Uri

URI = Uri("dtn://fox/f000042")


def make_descriptor(num_pieces: int = 2, popularity: float = 0.4) -> FileDescriptor:
    return FileDescriptor(
        uri=URI,
        title_tokens=("news", "island", "s01e01"),
        publisher="fox",
        size_bytes=num_pieces * PIECE_SIZE,
        popularity=popularity,
        created_at=0.0,
        ttl=2 * DAY,
    )


class TestPieceMath:
    def test_piece_size_is_256kb(self):
        assert PIECE_SIZE == 256 * 1024

    def test_num_pieces_exact_multiple(self):
        assert num_pieces_for_size(3 * PIECE_SIZE) == 3

    def test_num_pieces_rounds_up(self):
        assert num_pieces_for_size(PIECE_SIZE + 1) == 2
        assert num_pieces_for_size(1) == 1

    def test_num_pieces_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            num_pieces_for_size(0)


class TestPayloads:
    def test_payload_deterministic(self):
        assert piece_payload(URI, 0) == piece_payload(URI, 0)

    def test_payload_varies_by_index(self):
        assert piece_payload(URI, 0) != piece_payload(URI, 1)

    def test_payload_varies_by_uri(self):
        other = Uri("dtn://abc/f000001")
        assert piece_payload(URI, 0) != piece_payload(other, 0)

    def test_payload_length_honored(self):
        assert len(piece_payload(URI, 0)) == PAYLOAD_LENGTH

    def test_payload_rejects_negative_index(self):
        with pytest.raises(ValueError):
            piece_payload(URI, -1)

    def test_checksum_is_sha1_hex(self):
        digest = piece_checksum(b"hello")
        assert len(digest) == 40
        int(digest, 16)  # hex-parsable

    def test_checksums_match_payloads(self):
        sums = piece_checksums(URI, 3)
        for index, expected in enumerate(sums):
            assert piece_checksum(piece_payload(URI, index)) == expected


class TestFileDescriptor:
    def test_num_pieces_from_size(self):
        assert make_descriptor(num_pieces=5).num_pieces == 5

    def test_expiry(self):
        descriptor = make_descriptor()
        assert descriptor.expires_at == 2 * DAY
        assert descriptor.is_live(0.0)
        assert descriptor.is_live(2 * DAY - 1)
        assert not descriptor.is_live(2 * DAY)

    def test_not_live_before_creation(self):
        descriptor = FileDescriptor(
            uri=URI,
            title_tokens=("a",),
            publisher="fox",
            size_bytes=PIECE_SIZE,
            popularity=0.1,
            created_at=100.0,
            ttl=DAY,
        )
        assert not descriptor.is_live(50.0)

    def test_token_set(self):
        assert make_descriptor().token_set == {"news", "island", "s01e01"}

    def test_validation(self):
        with pytest.raises(ValueError):
            make_descriptor(popularity=1.5)
        with pytest.raises(ValueError):
            FileDescriptor(URI, ("a",), "fox", 0, 0.5, 0.0, DAY)
        with pytest.raises(ValueError):
            FileDescriptor(URI, ("a",), "fox", PIECE_SIZE, 0.5, 0.0, 0.0)


class TestPieceStore:
    def test_add_verified_piece(self):
        store = PieceStore()
        payload = piece_payload(URI, 0)
        assert store.add(URI, 0, payload, piece_checksum(payload)) is True
        assert store.pieces_of(URI) == {0}
        assert URI in store

    def test_duplicate_add_returns_false(self):
        store = PieceStore()
        payload = piece_payload(URI, 0)
        checksum = piece_checksum(payload)
        store.add(URI, 0, payload, checksum)
        assert store.add(URI, 0, payload, checksum) is False

    def test_corrupt_piece_rejected(self):
        store = PieceStore()
        payload = piece_payload(URI, 0)
        with pytest.raises(IntegrityError):
            store.add(URI, 0, payload + b"x", piece_checksum(payload))
        assert URI not in store

    def test_wrong_checksum_rejected(self):
        store = PieceStore()
        payload = piece_payload(URI, 0)
        with pytest.raises(IntegrityError):
            store.add(URI, 0, payload, piece_checksum(b"other"))

    def test_completion(self):
        store = PieceStore()
        for index in range(3):
            payload = piece_payload(URI, index)
            store.add(URI, index, payload, piece_checksum(payload))
            expected = index == 2
            assert store.is_complete(URI, 3) is expected

    def test_missing_pieces(self):
        store = PieceStore()
        payload = piece_payload(URI, 1)
        store.add(URI, 1, payload, piece_checksum(payload))
        assert store.pieces_of(URI) == {1}
        assert not store.is_complete(URI, 3)

    def test_add_whole_file(self):
        store = PieceStore()
        store.add_whole_file(URI, 4)
        assert store.is_complete(URI, 4)
        assert store.pieces_of(URI) == {0, 1, 2, 3}

    def test_drop(self):
        store = PieceStore()
        store.add_whole_file(URI, 2)
        store.drop(URI)
        assert URI not in store
        assert store.pieces_of(URI) == frozenset()

    def test_drop_expired_keeps_live(self):
        store = PieceStore()
        other = Uri("dtn://abc/f000002")
        store.add_whole_file(URI, 1)
        store.add_whole_file(other, 1)
        dropped = store.drop_expired(live_uris=frozenset({URI}))
        assert dropped == [other]
        assert URI in store

    def test_total_pieces(self):
        store = PieceStore()
        store.add_whole_file(URI, 3)
        store.add_unverified(Uri("dtn://abc/x"), 0)
        assert store.total_pieces() == 4

    def test_empty_store_queries(self):
        store = PieceStore()
        assert store.pieces_of(URI) == frozenset()
        assert not store.is_complete(URI, 1)
        assert store.uris == frozenset()
