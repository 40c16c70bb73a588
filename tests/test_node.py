"""Unit tests for per-node protocol state."""

from __future__ import annotations

import pytest

from repro.catalog.files import piece_payload
from repro.core.node import MetadataStore
from repro.types import DAY, NodeId, Uri

from conftest import make_metadata, make_node, make_query


class TestMetadataStore:
    def test_unbounded_by_default(self, registry):
        store = MetadataStore()
        for i in range(50):
            store.add(make_metadata(registry, uri=f"dtn://fox/{i}"))
        assert len(store) == 50

    def test_add_reports_new_vs_duplicate(self, registry):
        store = MetadataStore()
        record = make_metadata(registry)
        assert store.add(record) is True
        assert store.add(record) is False

    def test_capacity_evicts_least_popular(self, registry):
        store = MetadataStore(capacity=2)
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        mid = make_metadata(registry, uri="dtn://fox/mid", popularity=0.5)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.9)
        store.add(low)
        store.add(mid)
        store.add(high)
        assert len(store) == 2
        assert low.uri not in store
        assert mid.uri in store and high.uri in store

    def test_protected_records_survive_eviction(self, registry):
        store = MetadataStore(capacity=2)
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        mid = make_metadata(registry, uri="dtn://fox/mid", popularity=0.5)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.9)
        store.add(low)
        store.add(mid)
        store.add(high, protected=frozenset({low.uri, high.uri}))
        assert low.uri in store  # protected despite lowest popularity
        assert mid.uri not in store

    def test_may_evict_on_insert(self, registry):
        store = MetadataStore(capacity=1)
        record = make_metadata(registry)
        assert store.may_evict_on_insert(record.uri) is False  # not full yet
        store.add(record)
        assert store.may_evict_on_insert(record.uri) is False  # refresh, not insert
        assert store.may_evict_on_insert(Uri("dtn://fox/other")) is True

    def test_drop_expired(self, registry):
        store = MetadataStore()
        record = make_metadata(registry, ttl=100.0)
        store.add(record)
        assert store.drop_expired(now=200.0) == [record.uri]
        assert len(store) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MetadataStore(capacity=0)


class TestNodeQueries:
    def test_add_own_query_checks_owner(self, registry):
        node = make_node(registry, node=1)
        with pytest.raises(ValueError):
            node.add_own_query(make_query(2, "dtn://fox/x", ["a"]))

    def test_own_queries_filters_expired(self, registry):
        node = make_node(registry)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a"], 0.0, 100.0))
        node.add_own_query(make_query(0, "dtn://fox/b", ["b"], 0.0, 1000.0))
        assert len(node.own_queries(50.0)) == 2
        assert [q.target_uri for q in node.own_queries(500.0)] == ["dtn://fox/b"]

    def test_foreign_queries_deduplicated(self, registry):
        node = make_node(registry, node=0)
        query = make_query(1, "dtn://fox/x", ["a"])
        node.store_foreign_queries(NodeId(1), [query])
        node.store_foreign_queries(NodeId(1), [query])
        assert len(node.foreign_queries(0.0)) == 1

    def test_carried_queries_with_and_without_foreign(self, registry):
        node = make_node(registry, node=0)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a"]))
        node.store_foreign_queries(NodeId(1), [make_query(1, "dtn://fox/b", ["b"])])
        assert len(node.carried_queries(0.0, include_foreign=True)) == 2
        assert len(node.carried_queries(0.0, include_foreign=False)) == 1

    def test_query_token_views(self, registry):
        node = make_node(registry, node=0)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a", "x"]))
        node.store_foreign_queries(NodeId(1), [make_query(1, "dtn://fox/b", ["b"])])
        assert node.own_query_tokens(0.0) == (frozenset({"a", "x"}),)
        assert node.foreign_query_tokens(0.0) == (frozenset({"b"}),)

    def test_unmatched_own_queries(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, name="news island s01e01")
        node.accept_metadata(record, now=0.0)
        node.add_own_query(make_query(0, record.uri, ["island"]))
        node.add_own_query(make_query(0, "dtn://fox/other", ["desert"]))
        unmatched = node.unmatched_own_queries(0.0)
        assert [q.tokens for q in unmatched] == [frozenset({"desert"})]


class TestNodeReceiving:
    def test_accept_metadata_verifies_signature(self, registry):
        node = make_node(registry)
        good = make_metadata(registry)
        bad = make_metadata(registry, uri="dtn://fox/bad", signed=False)
        assert node.accept_metadata(good, 0.0) is True
        assert node.accept_metadata(bad, 0.0) is False
        assert node.stats.metadata_rejected_auth == 1

    def test_accept_metadata_can_skip_verification(self, registry):
        node = make_node(registry)
        node.verify_signatures = False
        unsigned = make_metadata(registry, signed=False)
        assert node.accept_metadata(unsigned, 0.0) is True

    def test_accept_metadata_rejects_expired(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, ttl=10.0)
        assert node.accept_metadata(record, now=20.0) is False

    def test_duplicate_metadata_counted(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        node.accept_metadata(record, 0.0)
        assert node.stats.metadata_received == 1
        assert node.stats.metadata_duplicates == 1

    def test_accept_piece_verifies(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        payload = piece_payload(record.uri, 0)
        assert node.accept_piece(record.uri, 0, payload, record.checksums[0]) is True
        assert node.accept_piece(record.uri, 0, payload, record.checksums[0]) is False
        assert node.stats.pieces_received == 1
        assert node.stats.piece_duplicates == 1


class TestWantedUris:
    def test_wants_incomplete_matching_file(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        node.add_own_query(make_query(0, record.uri, ["news"]))
        assert node.wanted_uris(0.0) == {record.uri}

    def test_complete_file_not_wanted(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        node.add_own_query(make_query(0, record.uri, ["news"]))
        node.receive_whole_file(record.uri, record.num_pieces)
        assert node.wanted_uris(0.0) == frozenset()

    def test_no_metadata_nothing_wanted(self, registry):
        node = make_node(registry)
        node.add_own_query(make_query(0, "dtn://fox/x", ["news"]))
        assert node.wanted_uris(0.0) == frozenset()

    def test_cache_invalidated_by_mutation(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.add_own_query(make_query(0, record.uri, ["news"]))
        assert node.wanted_uris(0.0) == frozenset()
        node.accept_metadata(record, 0.0)  # mutation must invalidate cache
        assert node.wanted_uris(0.0) == {record.uri}

    def test_expired_query_stops_wanting(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, ttl=5 * DAY)
        node.accept_metadata(record, 0.0)
        node.add_own_query(make_query(0, record.uri, ["news"], 0.0, DAY))
        assert node.wanted_uris(0.5 * DAY) == {record.uri}
        assert node.wanted_uris(2 * DAY) == frozenset()


class TestPeerRequests:
    def test_remember_and_rank_by_demand(self, registry):
        node = make_node(registry)
        a, b = Uri("dtn://fox/a"), Uri("dtn://fox/b")
        node.remember_peer_requests(NodeId(1), [a], now=0.0)
        node.remember_peer_requests(NodeId(2), [a, b], now=1.0)
        top = node.top_peer_requests(now=2.0, window=100.0)
        assert top[0] == a  # two distinct requesters beat one

    def test_window_prunes_stale_requests(self, registry):
        node = make_node(registry)
        a = Uri("dtn://fox/a")
        node.remember_peer_requests(NodeId(1), [a], now=0.0)
        assert node.top_peer_requests(now=50.0, window=100.0) == [a]
        assert node.top_peer_requests(now=500.0, window=100.0) == []

    def test_same_peer_counted_once(self, registry):
        node = make_node(registry)
        a, b = Uri("dtn://fox/a"), Uri("dtn://fox/b")
        node.remember_peer_requests(NodeId(1), [a], now=0.0)
        node.remember_peer_requests(NodeId(1), [a], now=1.0)
        node.remember_peer_requests(NodeId(2), [b], now=2.0)
        node.remember_peer_requests(NodeId(3), [b], now=3.0)
        top = node.top_peer_requests(now=4.0, window=100.0)
        assert top[0] == b


class TestHousekeeping:
    def test_expire_drops_everything_stale(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, ttl=100.0)
        node.accept_metadata(record, 0.0)
        node.receive_whole_file(record.uri, 1)
        node.add_own_query(make_query(0, record.uri, ["news"], 0.0, 100.0))
        node.store_foreign_queries(
            NodeId(1), [make_query(1, record.uri, ["news"], 0.0, 100.0)]
        )
        node.expire(now=200.0)
        assert len(node.metadata) == 0
        assert node.pieces.total_pieces() == 0
        assert node.own_queries(200.0) == []
        assert node.foreign_queries(200.0) == []

    def test_heard_recently(self, registry):
        node = make_node(registry)
        node.neighbor_last_heard[NodeId(1)] = 100.0
        node.neighbor_last_heard[NodeId(2)] = 10.0
        assert node.heard_recently(now=104.0, window=5.0) == {NodeId(1)}

    def test_repr_mentions_access(self, registry):
        assert "inet" in repr(make_node(registry, internet_access=True))
        assert "dtn" in repr(make_node(registry, internet_access=False))

    def test_stats_as_dict(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        stats = node.stats.as_dict()
        assert stats["metadata_received"] == 1
