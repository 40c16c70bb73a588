"""Unit tests for queries, keyword matching and the Internet servers."""

from __future__ import annotations

import pytest

from repro.catalog.files import PIECE_SIZE, FileDescriptor, piece_payload
from repro.catalog.query import best_match, live_queries, matches
from repro.catalog.server import FileServer, MetadataServer
from repro.types import DAY, NodeId, Uri

from conftest import make_metadata, make_query


class TestQuery:
    def test_match_is_conjunctive_subset(self, registry):
        record = make_metadata(registry, name="news island finale s01e01")
        assert make_query(0, record.uri, ["news", "island"]).matches(record)
        assert make_query(0, record.uri, ["s01e01"]).matches(record)
        assert not make_query(0, record.uri, ["news", "desert"]).matches(record)

    def test_module_level_matches(self, registry):
        record = make_metadata(registry)
        assert matches(frozenset({"news"}), record)
        assert not matches(frozenset({"zzz"}), record)

    def test_lifetime(self):
        query = make_query(0, "dtn://fox/x", ["a"], created_at=10.0, expires_at=20.0)
        assert not query.is_live(9.0)
        assert query.is_live(10.0)
        assert not query.is_live(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_query(0, "dtn://fox/x", [])
        with pytest.raises(ValueError):
            make_query(0, "dtn://fox/x", ["a"], created_at=5.0, expires_at=5.0)

    def test_live_queries_filter(self):
        queries = [
            make_query(0, "dtn://fox/a", ["a"], 0.0, 10.0),
            make_query(0, "dtn://fox/b", ["b"], 0.0, 100.0),
        ]
        assert [q.target_uri for q in live_queries(queries, 50.0)] == ["dtn://fox/b"]

    def test_best_match_returns_first_hit(self, registry):
        record = make_metadata(registry)
        miss = make_query(0, record.uri, ["nothing"])
        hit = make_query(0, record.uri, ["news"])
        assert best_match([miss, hit], record) is hit
        assert best_match([miss], record) is None


class TestMetadataServer:
    def test_publish_and_get(self, registry):
        server = MetadataServer()
        record = make_metadata(registry)
        server.publish(record)
        assert server.get(record.uri) == record
        assert record.uri in server
        assert len(server) == 1

    def test_search_conjunctive(self, registry):
        server = MetadataServer()
        a = make_metadata(registry, uri="dtn://fox/a", name="news island s01e01")
        b = make_metadata(registry, uri="dtn://fox/b", name="news desert s01e02")
        server.publish(a)
        server.publish(b)
        hits = server.search(frozenset({"news"}), now=0.0)
        assert {h.uri for h in hits} == {"dtn://fox/a", "dtn://fox/b"}
        hits = server.search(frozenset({"news", "island"}), now=0.0)
        assert [h.uri for h in hits] == ["dtn://fox/a"]

    def test_search_ranked_by_popularity(self, registry):
        server = MetadataServer()
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.9)
        server.publish(low)
        server.publish(high)
        hits = server.search(frozenset({"news"}), now=0.0)
        assert [h.uri for h in hits] == ["dtn://fox/high", "dtn://fox/low"]

    def test_search_limit(self, registry):
        server = MetadataServer()
        for i in range(5):
            server.publish(make_metadata(registry, uri=f"dtn://fox/{i}"))
        assert len(server.search(frozenset({"news"}), now=0.0, limit=2)) == 2

    def test_search_empty_tokens(self, registry):
        server = MetadataServer()
        server.publish(make_metadata(registry))
        assert server.search(frozenset(), now=0.0) == []

    def test_search_skips_expired(self, registry):
        server = MetadataServer()
        record = make_metadata(registry, ttl=100.0)
        server.publish(record)
        assert server.search(frozenset({"news"}), now=50.0)
        assert server.search(frozenset({"news"}), now=150.0) == []

    def test_expire_removes_from_index(self, registry):
        server = MetadataServer()
        record = make_metadata(registry, ttl=100.0)
        server.publish(record)
        dead = server.expire(now=200.0)
        assert dead == [record.uri]
        assert record.uri not in server
        assert server.search(frozenset({"news"}), now=200.0) == []

    def test_top_popular_excludes(self, registry):
        server = MetadataServer()
        a = make_metadata(registry, uri="dtn://fox/a", popularity=0.9)
        b = make_metadata(registry, uri="dtn://fox/b", popularity=0.5)
        server.publish(a)
        server.publish(b)
        top = server.top_popular(now=0.0, limit=5, exclude=frozenset({a.uri}))
        assert [t.uri for t in top] == ["dtn://fox/b"]

    def test_all_records_ranked(self, registry):
        server = MetadataServer()
        a = make_metadata(registry, uri="dtn://fox/a", popularity=0.2)
        b = make_metadata(registry, uri="dtn://fox/b", popularity=0.7)
        server.publish(a)
        server.publish(b)
        assert [r.uri for r in server.all_records()] == ["dtn://fox/b", "dtn://fox/a"]

    def test_expire_deletes_emptied_token_buckets(self, registry):
        server = MetadataServer()
        shared = make_metadata(registry, uri="dtn://fox/a", name="news shared")
        only = make_metadata(
            registry, uri="dtn://fox/b", name="news unique", ttl=100.0
        )
        server.publish(shared)
        server.publish(only)
        assert server.expire(now=200.0) == [only.uri]
        # "unique"'s posting bucket emptied and must be gone entirely;
        # "news" still carries the surviving record.
        assert "unique" not in server._index
        assert server._index["news"] == {shared.uri}

    def test_search_limit_zero_returns_nothing(self, registry):
        server = MetadataServer()
        server.publish(make_metadata(registry))
        assert server.search(frozenset({"news"}), now=0.0, limit=0) == []

    def test_top_popular_exclude_interacts_with_expiry(self, registry):
        server = MetadataServer()
        expired = make_metadata(
            registry, uri="dtn://fox/a", popularity=0.9, ttl=100.0
        )
        excluded = make_metadata(registry, uri="dtn://fox/b", popularity=0.8)
        survivor = make_metadata(registry, uri="dtn://fox/c", popularity=0.1)
        server.publish(expired)
        server.publish(excluded)
        server.publish(survivor)
        # Before expiry runs, liveness filtering alone must hide the
        # dead record; the exclude set hides the live popular one.
        top = server.top_popular(now=200.0, limit=5, exclude=frozenset({excluded.uri}))
        assert [t.uri for t in top] == [survivor.uri]
        assert server.expire(now=200.0) == [expired.uri]
        top = server.top_popular(now=200.0, limit=5, exclude=frozenset({excluded.uri}))
        assert [t.uri for t in top] == [survivor.uri]

    def test_republish_drops_stale_postings(self, registry):
        server = MetadataServer()
        first = make_metadata(registry, uri="dtn://fox/a", name="news oldtoken")
        second = make_metadata(registry, uri="dtn://fox/a", name="news newtoken")
        server.publish(first)
        server.publish(second)
        assert server.search(frozenset({"oldtoken"}), now=0.0) == []
        assert [r.uri for r in server.search(frozenset({"newtoken"}), now=0.0)] == [
            "dtn://fox/a"
        ]
        assert len(server) == 1

    def test_refresh_popularities_replaces_only_changed(self, registry):
        from repro.catalog.popularity import PopularityTracker

        tracker = PopularityTracker(population=10)
        server = MetadataServer(tracker)
        moved = make_metadata(registry, uri="dtn://fox/a", popularity=0.5)
        still = make_metadata(registry, uri="dtn://fox/b", popularity=0.0)
        server.publish(moved)
        server.publish(still)
        now = DAY
        tracker.record_request(moved.uri, NodeId(1), now - 1.0)
        before = server.get(still.uri)
        server.refresh_popularities(now)
        assert server.get(still.uri) is before  # unchanged record not reallocated
        assert server.get(moved.uri).popularity == pytest.approx(0.1)


class TestFileServer:
    def _descriptor(self, num_pieces: int = 2) -> FileDescriptor:
        return FileDescriptor(
            uri=Uri("dtn://fox/f1"),
            title_tokens=("a", "b"),
            publisher="fox",
            size_bytes=num_pieces * PIECE_SIZE,
            popularity=0.5,
            created_at=0.0,
            ttl=DAY,
        )

    def test_fetch_piece_matches_payload(self):
        server = FileServer()
        descriptor = self._descriptor()
        server.publish(descriptor)
        payload = server.fetch_piece(descriptor.uri, 1)
        assert payload == piece_payload(descriptor.uri, 1)

    def test_fetch_all_yields_every_piece(self):
        server = FileServer()
        descriptor = self._descriptor(num_pieces=3)
        server.publish(descriptor)
        pieces = dict(server.fetch_all(descriptor.uri))
        assert set(pieces) == {0, 1, 2}

    def test_unknown_uri_raises(self):
        with pytest.raises(KeyError):
            FileServer().fetch_piece(Uri("dtn://fox/none"), 0)

    def test_out_of_range_piece_raises(self):
        server = FileServer()
        descriptor = self._descriptor()
        server.publish(descriptor)
        with pytest.raises(IndexError):
            server.fetch_piece(descriptor.uri, 99)

    def test_expire(self):
        server = FileServer()
        descriptor = self._descriptor()
        server.publish(descriptor)
        assert server.expire(now=DAY + 1) == [descriptor.uri]
        assert descriptor.uri not in server
