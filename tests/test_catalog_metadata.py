"""Unit tests for metadata records and publisher authentication."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.catalog.files import PIECE_SIZE, FileDescriptor
from repro.catalog.metadata import (
    PublisherRegistry,
    metadata_for_file,
    sign_metadata,
    verify_metadata,
)
from repro.types import DAY, Uri

from conftest import make_metadata


class TestMetadata:
    def test_num_pieces_matches_checksums(self, registry):
        record = make_metadata(registry, num_pieces=3)
        assert record.num_pieces == 3

    def test_token_set_lowercases_name(self, registry):
        record = make_metadata(registry, name="News Island S01E01")
        assert record.token_set == {"news", "island", "s01e01"}

    def test_expiry(self, registry):
        record = make_metadata(registry, created_at=10.0, ttl=100.0)
        assert record.expires_at == 110.0
        assert record.is_live(109.0)
        assert not record.is_live(110.0)

    def test_with_popularity_keeps_signature(self, registry):
        record = make_metadata(registry, popularity=0.2)
        bumped = record.with_popularity(0.9)
        assert bumped.popularity == 0.9
        assert bumped.signature == record.signature
        # Popularity is excluded from the signed canonical form.
        assert verify_metadata(bumped, registry)

    def test_canonical_bytes_cover_identity_fields(self, registry):
        record = make_metadata(registry)
        assert record.canonical_bytes() != replace(record, name="x").canonical_bytes()
        assert (
            record.canonical_bytes()
            != replace(record, publisher="abc").canonical_bytes()
        )


class TestPublisherRegistry:
    def test_register_idempotent(self):
        registry = PublisherRegistry(0)
        registry.register("fox")
        secret = registry.secret_for("fox")
        registry.register("fox")
        assert registry.secret_for("fox") == secret

    def test_unknown_publisher_raises(self):
        with pytest.raises(KeyError):
            PublisherRegistry(0).secret_for("nobody")

    def test_secrets_differ_per_publisher(self):
        registry = PublisherRegistry(0)
        registry.register("fox")
        registry.register("abc")
        assert registry.secret_for("fox") != registry.secret_for("abc")

    def test_secrets_differ_per_master_seed(self):
        a = PublisherRegistry(1)
        b = PublisherRegistry(2)
        a.register("fox")
        b.register("fox")
        assert a.secret_for("fox") != b.secret_for("fox")

    def test_publishers_listing(self):
        registry = PublisherRegistry(0)
        registry.register("fox")
        registry.register("abc")
        assert registry.publishers == ("abc", "fox")


class TestSigning:
    def test_signed_record_verifies(self, registry):
        record = make_metadata(registry)
        assert verify_metadata(record, registry)

    def test_unsigned_record_fails(self, registry):
        record = make_metadata(registry, signed=False)
        assert not verify_metadata(record, registry)

    def test_tampered_name_fails(self, registry):
        record = make_metadata(registry)
        forged = replace(record, name="fake blockbuster s01e01")
        assert not verify_metadata(forged, registry)

    def test_tampered_checksums_fail(self, registry):
        record = make_metadata(registry)
        forged = replace(record, checksums=("0" * 40,))
        assert not verify_metadata(forged, registry)

    def test_fake_publisher_rejected(self, registry):
        # An attacker claims to be a publisher the registry never saw.
        record = make_metadata(registry, signed=False)
        forged = replace(record, publisher="evil-corp", signature="ab" * 32)
        assert not verify_metadata(forged, registry)

    def test_signature_from_other_publisher_fails(self, registry):
        record = make_metadata(registry, publisher="fox")
        # Re-sign with abc's key while still claiming fox.
        abc_signed = sign_metadata(replace(record, publisher="abc"), registry)
        forged = replace(abc_signed, publisher="fox")
        assert not verify_metadata(forged, registry)


class TestMetadataForFile:
    def _descriptor(self) -> FileDescriptor:
        return FileDescriptor(
            uri=Uri("dtn://fox/f000009"),
            title_tokens=("drama", "harbor", "finale", "s01e09"),
            publisher="fox",
            size_bytes=2 * PIECE_SIZE,
            popularity=0.3,
            created_at=0.0,
            ttl=DAY,
        )

    def test_builds_signed_record(self, registry):
        record = metadata_for_file(self._descriptor(), "desc", registry)
        assert verify_metadata(record, registry)
        assert record.num_pieces == 2
        assert record.name == "drama harbor finale s01e09"
        assert record.popularity == 0.3

    def test_unsigned_when_no_registry(self):
        record = metadata_for_file(self._descriptor(), "desc", registry=None)
        assert record.signature == ""

    def test_registers_unknown_publisher(self):
        registry = PublisherRegistry(0)
        metadata_for_file(self._descriptor(), "desc", registry)
        assert registry.is_trusted("fox")
