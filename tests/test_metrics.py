"""Unit tests for delivery metrics."""

from __future__ import annotations

import pytest

from repro.sim.metrics import MetricsCollector
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import NodeId, Uri

from conftest import make_query


class TestMetricsCollector:
    def test_metadata_delivery_marks_live_query(self):
        metrics = MetricsCollector()
        query = make_query(1, "dtn://fox/a", ["a"], 0.0, 100.0)
        metrics.register_query(query, access_node=False)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), now=50.0)
        record = metrics.records[0]
        assert record.metadata_delivered_at == 50.0
        assert not record.file_delivered

    def test_delivery_after_expiry_ignored(self):
        metrics = MetricsCollector()
        query = make_query(1, "dtn://fox/a", ["a"], 0.0, 100.0)
        metrics.register_query(query, access_node=False)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), now=150.0)
        assert not metrics.records[0].metadata_delivered

    def test_wrong_node_or_uri_ignored(self):
        metrics = MetricsCollector()
        metrics.register_query(make_query(1, "dtn://fox/a", ["a"]), access_node=False)
        metrics.on_metadata(NodeId(2), Uri("dtn://fox/a"), now=1.0)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/b"), now=1.0)
        assert not metrics.records[0].metadata_delivered

    def test_first_delivery_time_kept(self):
        metrics = MetricsCollector()
        metrics.register_query(make_query(1, "dtn://fox/a", ["a"]), access_node=False)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), now=10.0)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), now=20.0)
        assert metrics.records[0].metadata_delivered_at == 10.0

    def test_file_completion_implies_metadata(self):
        metrics = MetricsCollector()
        metrics.register_query(make_query(1, "dtn://fox/a", ["a"]), access_node=False)
        metrics.on_file_complete(NodeId(1), Uri("dtn://fox/a"), now=30.0)
        record = metrics.records[0]
        assert record.file_delivered_at == 30.0
        assert record.metadata_delivered_at == 30.0

    def test_result_measures_non_access_only(self):
        metrics = MetricsCollector()
        dtn_query = make_query(1, "dtn://fox/a", ["a"])
        inet_query = make_query(2, "dtn://fox/a", ["a"])
        metrics.register_query(dtn_query, access_node=False)
        metrics.register_query(inet_query, access_node=True)
        metrics.on_file_complete(NodeId(2), Uri("dtn://fox/a"), now=1.0)
        result = metrics.result()
        assert result.queries_generated == 1  # only the non-access query
        assert result.file_delivery_ratio == 0.0
        assert result.access_file_delivery_ratio == 1.0

    def test_ratios(self):
        metrics = MetricsCollector()
        for node in (1, 2, 3, 4):
            metrics.register_query(make_query(node, "dtn://fox/a", ["a"]), False)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), 1.0)
        metrics.on_metadata(NodeId(2), Uri("dtn://fox/a"), 1.0)
        metrics.on_file_complete(NodeId(1), Uri("dtn://fox/a"), 2.0)
        result = metrics.result()
        assert result.metadata_delivery_ratio == pytest.approx(0.5)
        assert result.file_delivery_ratio == pytest.approx(0.25)
        assert result.metadata_delivered == 2
        assert result.files_delivered == 1

    def test_empty_result(self):
        result = MetricsCollector().result()
        assert result.queries_generated == 0
        assert result.metadata_delivery_ratio == 0.0
        assert result.file_delivery_ratio == 0.0

    def test_transmission_counters_in_extra(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=8, num_days=2), seed=1
        )
        sim = Simulation(trace, SimulationConfig(seed=1, files_per_day=10))
        result = sim.run()
        counters = sim.engine.counters
        stats = [state.stats for state in sim.states.values()]
        assert counters.metadata_transmissions > 0 and counters.piece_transmissions > 0
        assert result.extra["metadata_transmissions"] == counters.metadata_transmissions
        assert result.extra["piece_transmissions"] == counters.piece_transmissions
        assert counters.metadata_transmissions == sum(s.metadata_sent for s in stats)
        assert counters.piece_transmissions == sum(s.pieces_sent for s in stats)
        assert MetricsCollector().result(extra={"custom": 7.0}).extra["custom"] == 7.0

    def test_duplicate_queries_same_target_both_tracked(self):
        metrics = MetricsCollector()
        metrics.register_query(make_query(1, "dtn://fox/a", ["a"]), False)
        metrics.register_query(make_query(1, "dtn://fox/a", ["b"]), False)
        metrics.on_metadata(NodeId(1), Uri("dtn://fox/a"), 1.0)
        assert all(r.metadata_delivered for r in metrics.records)

    def test_describe(self):
        metrics = MetricsCollector()
        metrics.register_query(make_query(1, "dtn://fox/a", ["a"]), False)
        text = metrics.result().describe()
        assert "metadata" in text and "file" in text
