"""Unit tests for the daily catalog generator (workload of §VI-A)."""

from __future__ import annotations

import pytest

from repro.catalog.generator import CatalogConfig, CatalogGenerator
from repro.catalog.metadata import verify_metadata
from repro.types import DAY, NodeId, noon_of_day

NODES = [NodeId(i) for i in range(30)]


def make_generator(
    files_per_day: int = 20, ttl_days: float = 2.0, seed: int = 0, pieces: int = 1
) -> CatalogGenerator:
    config = CatalogConfig(
        files_per_day=files_per_day, ttl_days=ttl_days, pieces_per_file=pieces
    )
    return CatalogGenerator(config, NODES, seed=seed)


class TestCatalogConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CatalogConfig(files_per_day=0)
        with pytest.raises(ValueError):
            CatalogConfig(ttl_days=0.0)
        with pytest.raises(ValueError):
            CatalogConfig(pieces_per_file=0)

    def test_file_size_yields_requested_pieces(self):
        config = CatalogConfig(pieces_per_file=3)
        assert config.file_size_bytes == 3 * 256 * 1024

    def test_popularity_model_lambda(self):
        config = CatalogConfig(files_per_day=40)
        assert config.popularity_model().lam == pytest.approx(20.0)


class TestDailyBatch:
    def test_batch_sizes(self):
        generator = make_generator(files_per_day=15)
        batch = generator.generate_day(0, noon_of_day(0))
        assert len(batch.descriptors) == 15
        assert len(batch.metadata) == 15

    def test_uris_unique_across_days(self):
        generator = make_generator(files_per_day=5)
        uris = set()
        for day in range(4):
            batch = generator.generate_day(day, noon_of_day(day))
            for descriptor in batch.descriptors:
                assert descriptor.uri not in uris
                uris.add(descriptor.uri)

    def test_metadata_signed_and_verifiable(self):
        generator = make_generator()
        batch = generator.generate_day(0, noon_of_day(0))
        for record in batch.metadata:
            assert verify_metadata(record, generator.registry)

    def test_metadata_mirror_descriptors(self):
        generator = make_generator(pieces=2)
        batch = generator.generate_day(0, noon_of_day(0))
        for descriptor, record in zip(batch.descriptors, batch.metadata):
            assert record.uri == descriptor.uri
            assert record.num_pieces == descriptor.num_pieces == 2
            assert record.popularity == descriptor.popularity
            assert record.created_at == descriptor.created_at

    def test_ttl_applied(self):
        generator = make_generator(ttl_days=2.0)
        noon = noon_of_day(0)
        batch = generator.generate_day(0, noon)
        for descriptor in batch.descriptors:
            assert descriptor.expires_at == pytest.approx(noon + 2 * DAY)

    def test_deterministic_per_seed(self):
        a = make_generator(seed=3).generate_day(0, noon_of_day(0))
        b = make_generator(seed=3).generate_day(0, noon_of_day(0))
        assert [d.uri for d in a.descriptors] == [d.uri for d in b.descriptors]
        assert [q.target_uri for q in a.queries] == [q.target_uri for q in b.queries]

    def test_seed_changes_output(self):
        a = make_generator(seed=1).generate_day(0, noon_of_day(0))
        b = make_generator(seed=2).generate_day(0, noon_of_day(0))
        assert [d.popularity for d in a.descriptors] != [
            d.popularity for d in b.descriptors
        ]


class TestQueries:
    def test_queries_target_fresh_files(self):
        generator = make_generator()
        batch = generator.generate_day(0, noon_of_day(0))
        uris = {d.uri for d in batch.descriptors}
        for query in batch.queries:
            assert query.target_uri in uris

    def test_queries_match_their_target_metadata(self):
        generator = make_generator()
        batch = generator.generate_day(0, noon_of_day(0))
        by_uri = {record.uri: record for record in batch.metadata}
        for query in batch.queries:
            assert query.matches(by_uri[query.target_uri])

    def test_queries_belong_to_known_nodes(self):
        generator = make_generator()
        batch = generator.generate_day(0, noon_of_day(0))
        for query in batch.queries:
            assert query.node in NODES

    def test_query_lifetime_tracks_file(self):
        generator = make_generator(ttl_days=3.0)
        noon = noon_of_day(0)
        batch = generator.generate_day(0, noon)
        for query in batch.queries:
            assert query.created_at == noon
            assert query.expires_at == pytest.approx(noon + 3 * DAY)

    def test_average_query_rate_near_two_per_node_per_day(self):
        # λ = n/2 makes nodes average ≈ 2 queries per day (§VI-A).
        generator = make_generator(files_per_day=40, seed=5)
        total = 0
        days = 12
        for day in range(days):
            total += len(generator.generate_day(day, noon_of_day(day)).queries)
        per_node_per_day = total / len(NODES) / days
        assert per_node_per_day == pytest.approx(2.0, rel=0.25)

    def test_rejects_empty_node_population(self):
        with pytest.raises(ValueError):
            CatalogGenerator(CatalogConfig(), [], seed=0)
