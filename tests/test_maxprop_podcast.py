"""Tests for the podcasting baseline."""

from __future__ import annotations

import pytest

from repro.core.podcast import PodcastConfig, PodcastSimulation
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace


class TestPodcastBaseline:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_dieselnet_trace(DieselNetConfig(num_buses=14, num_days=5), 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PodcastConfig(internet_access_fraction=2.0)
        with pytest.raises(ValueError):
            PodcastConfig(entries_per_contact=-1)
        with pytest.raises(ValueError):
            PodcastConfig(max_subscriptions=0)

    def test_deterministic(self, trace):
        a = PodcastSimulation(trace, PodcastConfig(seed=5)).run()
        b = PodcastSimulation(trace, PodcastConfig(seed=5)).run()
        assert a.file_delivery_ratio == b.file_delivery_ratio

    def test_ratios_valid_and_coupled(self, trace):
        result = PodcastSimulation(trace, PodcastConfig(seed=5)).run()
        # Entries are whole files with metadata: both ratios coincide.
        assert 0.0 < result.file_delivery_ratio <= 1.0
        assert result.file_delivery_ratio == result.metadata_delivery_ratio

    def test_entry_pulls_counted_in_extra(self, trace):
        idle = PodcastSimulation(
            trace, PodcastConfig(seed=5, entries_per_contact=0)
        ).run()
        busy = PodcastSimulation(trace, PodcastConfig(seed=5)).run()
        assert idle.extra["piece_transmissions"] == 0.0
        assert busy.extra["piece_transmissions"] > 0.0

    def test_more_budget_helps(self, trace):
        small = PodcastSimulation(
            trace, PodcastConfig(seed=5, entries_per_contact=1)
        ).run()
        big = PodcastSimulation(
            trace, PodcastConfig(seed=5, entries_per_contact=8)
        ).run()
        assert big.file_delivery_ratio >= small.file_delivery_ratio

    def test_mbt_beats_podcast_on_query_workload(self, trace):
        from repro.sim.runner import Simulation, SimulationConfig

        podcast = PodcastSimulation(
            trace, PodcastConfig(seed=5, entries_per_contact=3)
        ).run()
        mbt = Simulation(
            trace,
            SimulationConfig(seed=5, files_per_contact=3, metadata_per_contact=3),
        ).run()
        # The discovery step is precisely what the baseline lacks.
        assert mbt.file_delivery_ratio > podcast.file_delivery_ratio

    def test_subscriptions_capped(self, trace):
        sim = PodcastSimulation(
            trace, PodcastConfig(seed=5, max_subscriptions=2)
        )
        sim.run()
        for state in sim._states.values():
            assert len(state.subscriptions) <= 2
