"""Tests for extension features: eviction policies, delay metrics and
adversarial behaviour."""

from __future__ import annotations

import pytest

from repro.catalog.files import IntegrityError, piece_payload
from repro.catalog.metadata import sign_metadata
from repro.core.node import MetadataStore
from repro.sim.metrics import MetricsCollector, _percentile
from repro.types import NodeId, Uri

from conftest import make_metadata, make_node, make_query


class TestEvictionPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MetadataStore(capacity=2, policy="magic")

    def test_fifo_evicts_oldest(self, registry):
        store = MetadataStore(capacity=2, policy="fifo")
        first = make_metadata(registry, uri="dtn://fox/first", popularity=0.9)
        second = make_metadata(registry, uri="dtn://fox/second", popularity=0.1)
        third = make_metadata(registry, uri="dtn://fox/third", popularity=0.5)
        store.add(first)
        store.add(second)
        store.add(third)
        # FIFO ignores popularity: the oldest insert goes.
        assert first.uri not in store
        assert second.uri in store and third.uri in store

    def test_lru_eviction_respects_access(self, registry):
        store = MetadataStore(capacity=2, policy="lru")
        a = make_metadata(registry, uri="dtn://fox/a")
        b = make_metadata(registry, uri="dtn://fox/b")
        c = make_metadata(registry, uri="dtn://fox/c")
        store.add(a)
        store.add(b)
        store.get(a.uri)  # touch a: b becomes least recently used
        store.add(c)
        assert b.uri not in store
        assert a.uri in store and c.uri in store

    def test_fifo_protected_survive(self, registry):
        store = MetadataStore(capacity=2, policy="fifo")
        first = make_metadata(registry, uri="dtn://fox/first")
        second = make_metadata(registry, uri="dtn://fox/second")
        third = make_metadata(registry, uri="dtn://fox/third")
        store.add(first)
        store.add(second)
        store.add(third, protected=frozenset({first.uri}))
        assert first.uri in store
        assert second.uri not in store

    def test_policy_reaches_node_state(self, registry):
        node = make_node(registry)
        assert node.metadata._policy == "popularity"


class TestDelayMetrics:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.5) == 2.0
        assert _percentile(values, 0.9) == 4.0
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 4.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            _percentile([], 0.5)
        with pytest.raises(ValueError):
            _percentile([1.0], 1.5)

    def test_delays_collected(self):
        metrics = MetricsCollector()
        query = make_query(1, "dtn://fox/a", ["a"], created_at=100.0,
                           expires_at=10_000.0)
        metrics.register_query(query, access_node=False)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), now=400.0)
        metrics.on_file_complete(NodeId(1), Uri("dtn://fox/a"), now=700.0)
        assert metrics.metadata_delays() == [300.0]
        assert metrics.file_delays() == [600.0]

    def test_delay_stats_in_result_extra(self):
        metrics = MetricsCollector()
        for node in (1, 2):
            query = make_query(node, "dtn://fox/a", ["a"], 0.0, 10_000.0)
            metrics.register_query(query, access_node=False)
            metrics.on_file_complete(NodeId(node), Uri("dtn://fox/a"),
                                     now=100.0 * node)
        result = metrics.result()
        assert result.extra["file_delay_p50"] == 100.0
        assert result.extra["file_delay_mean"] == 150.0

    def test_no_delay_keys_when_nothing_delivered(self):
        result = MetricsCollector().result()
        assert "file_delay_p50" not in result.extra


class TestAdversarialBehaviour:
    def test_corrupt_piece_rejected_end_to_end(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        bogus = piece_payload(record.uri, 0) + b"tampered"
        with pytest.raises(IntegrityError):
            node.accept_piece(record.uri, 0, bogus, record.checksums[0])
        assert node.pieces.pieces_of(record.uri) == frozenset()

    def test_fake_publisher_flood_does_not_pollute_store(self, registry):
        node = make_node(registry)
        for i in range(10):
            fake = make_metadata(
                registry, uri=f"dtn://evil/{i}", publisher="fox", signed=False
            )
            assert node.accept_metadata(fake, 0.0) is False
        assert len(node.metadata) == 0
        assert node.stats.metadata_rejected_auth == 10

    def test_replayed_metadata_with_altered_popularity_is_fine(self, registry):
        # Popularity is server-maintained and unsigned: updating it must
        # not break verification, but identity fields must.
        node = make_node(registry)
        record = make_metadata(registry)
        assert node.accept_metadata(record.with_popularity(0.99), 0.0) is True

    def test_wrong_registry_rejects_foreign_signatures(self):
        from repro.catalog.metadata import PublisherRegistry

        theirs = PublisherRegistry(master_seed=1)
        theirs.register("fox")
        record = make_metadata(theirs, publisher="fox")
        ours = PublisherRegistry(master_seed=2)
        ours.register("fox")
        node = make_node(ours)
        assert node.accept_metadata(record, 0.0) is False
