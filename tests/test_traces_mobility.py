"""Unit tests for the mobility-model trace generators."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.mobility import (
    CommunityConfig,
    RandomWaypointConfig,
    community_of_nodes,
    generate_community_trace,
    generate_random_waypoint_trace,
)
from repro.types import HOUR

FAST_RWP = RandomWaypointConfig(
    num_nodes=12, area_size=500.0, radio_range=60.0, tick=30.0, duration=4 * HOUR
)
FAST_COMMUNITY = CommunityConfig(
    num_nodes=16, num_communities=3, area_size=1200.0, community_radius=150.0,
    radio_range=60.0, tick=30.0, duration=4 * HOUR,
)


class TestConfigs:
    def test_rwp_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointConfig(num_nodes=1)
        with pytest.raises(ValueError):
            RandomWaypointConfig(min_speed=0.0)
        with pytest.raises(ValueError):
            RandomWaypointConfig(min_speed=5.0, max_speed=1.0)
        with pytest.raises(ValueError):
            RandomWaypointConfig(min_pause=10.0, max_pause=5.0)
        with pytest.raises(ValueError):
            RandomWaypointConfig(tick=0.0)

    def test_community_validation(self):
        with pytest.raises(ValueError):
            CommunityConfig(num_communities=0)
        with pytest.raises(ValueError):
            CommunityConfig(roaming_probability=1.5)
        with pytest.raises(ValueError):
            CommunityConfig(community_radius=0.0)


class TestRandomWaypoint:
    def test_deterministic_per_seed(self):
        a = generate_random_waypoint_trace(FAST_RWP, seed=1)
        b = generate_random_waypoint_trace(FAST_RWP, seed=1)
        assert [(c.start, c.members) for c in a] == [(c.start, c.members) for c in b]

    def test_seed_changes_trace(self):
        a = generate_random_waypoint_trace(FAST_RWP, seed=1)
        b = generate_random_waypoint_trace(FAST_RWP, seed=2)
        assert [(c.start, c.members) for c in a] != [(c.start, c.members) for c in b]

    def test_contacts_pairwise_and_within_duration(self):
        trace = generate_random_waypoint_trace(FAST_RWP, seed=1)
        assert len(trace) > 0
        for contact in trace:
            assert contact.size == 2
            assert 0.0 <= contact.start <= FAST_RWP.duration
            assert contact.duration >= FAST_RWP.tick

    def test_contact_durations_multiple_of_sampling(self):
        trace = generate_random_waypoint_trace(FAST_RWP, seed=1)
        for contact in trace:
            # Extraction merges tick-aligned samples.
            assert contact.duration >= FAST_RWP.tick - 1e-9

    def test_larger_radio_range_more_contacts(self):
        small = generate_random_waypoint_trace(FAST_RWP, seed=3)
        big_config = RandomWaypointConfig(
            num_nodes=12, area_size=500.0, radio_range=150.0, tick=30.0,
            duration=4 * HOUR,
        )
        big = generate_random_waypoint_trace(big_config, seed=3)
        assert len(big) >= len(small)

    def test_nodes_within_population(self):
        trace = generate_random_waypoint_trace(FAST_RWP, seed=1)
        assert set(trace.nodes) <= set(range(FAST_RWP.num_nodes))


class TestCommunity:
    def test_deterministic_per_seed(self):
        a = generate_community_trace(FAST_COMMUNITY, seed=5)
        b = generate_community_trace(FAST_COMMUNITY, seed=5)
        assert [(c.start, c.members) for c in a] == [(c.start, c.members) for c in b]

    def test_produces_contacts(self):
        trace = generate_community_trace(FAST_COMMUNITY, seed=5)
        assert len(trace) > 0

    def test_same_community_pairs_meet_more(self):
        # Communities induce locality: most contact mass is intra-community.
        trace = generate_community_trace(FAST_COMMUNITY, seed=5)
        homes = community_of_nodes(FAST_COMMUNITY)
        counts = Counter()
        for contact in trace:
            for u, v in contact.pairs():
                key = "same" if homes[u] == homes[v] else "cross"
                counts[key] += 1
        assert counts["same"] > counts["cross"]

    def test_home_assignment_round_robin(self):
        homes = community_of_nodes(FAST_COMMUNITY)
        assert len(homes) == FAST_COMMUNITY.num_nodes
        assert set(homes) == set(range(FAST_COMMUNITY.num_communities))

    def test_zero_roaming_still_runs(self):
        config = CommunityConfig(
            num_nodes=8, num_communities=2, area_size=800.0,
            community_radius=100.0, roaming_probability=0.0,
            radio_range=60.0, tick=30.0, duration=2 * HOUR,
        )
        trace = generate_community_trace(config, seed=1)
        homes = community_of_nodes(config)
        # With no roaming, all contacts are intra-community.
        for contact in trace:
            communities = {homes[m] for m in contact.members}
            assert len(communities) == 1


class TestGridEquivalence:
    """The spatial-hash kernel must be bitwise-identical to the all-pairs scan.

    "Bitwise" is literal: same Contact ordering, same float start/end
    values, same member sets. The hypothesis suites below drive both
    kernels over randomized synthetic position streams (including the
    degenerate radio ranges 0 and larger than the whole area) and over
    real walker populations from randomized model configurations.
    """

    @staticmethod
    def _records(contacts):
        # Contact equality ignores members (compare=False), so compare
        # the full value explicitly.
        return [(c.start, c.end, tuple(sorted(c.members))) for c in contacts]

    @staticmethod
    def _run_both(positions, radio_range, tick, num_nodes):
        from repro.traces.mobility import (
            _extract_contacts,
            _extract_contacts_reference,
        )

        grid = _extract_contacts(iter(positions), radio_range, tick, num_nodes)
        reference = _extract_contacts_reference(
            iter(positions), radio_range, tick, num_nodes
        )
        return grid, reference

    @given(
        num_nodes=st.integers(min_value=2, max_value=14),
        num_ticks=st.integers(min_value=1, max_value=12),
        radio_range=st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-3, max_value=5_000.0),
            st.just(1e6),  # covers every bounded coordinate below
        ),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_on_random_positions(
        self, num_nodes, num_ticks, radio_range, data
    ):
        tick = 30.0
        coord = st.floats(
            min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False
        )
        positions = [
            (
                t * tick,
                [
                    (data.draw(coord), data.draw(coord))
                    for __ in range(num_nodes)
                ],
            )
            for t in range(num_ticks)
        ]
        grid, reference = self._run_both(positions, radio_range, tick, num_nodes)
        assert self._records(grid) == self._records(reference)

    @given(
        num_nodes=st.integers(min_value=2, max_value=12),
        area_size=st.floats(min_value=100.0, max_value=3_000.0),
        radio_range=st.floats(min_value=1.0, max_value=10_000.0),
        ticks=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_rwp_walkers(
        self, num_nodes, area_size, radio_range, ticks, seed
    ):
        from repro.traces.mobility import _rwp_walkers, _sample_positions

        config = RandomWaypointConfig(
            num_nodes=num_nodes,
            area_size=area_size,
            radio_range=radio_range,  # may exceed area_size: all-in-range
            tick=60.0,
            duration=ticks * 60.0,
        )
        walkers = _rwp_walkers(config, random.Random(seed ^ 0xB0B11E))
        positions = list(
            _sample_positions(walkers, config.tick, config.duration)
        )
        grid, reference = self._run_both(
            positions, config.radio_range, config.tick, config.num_nodes
        )
        assert self._records(grid) == self._records(reference)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_reference_on_community_model(self, seed):
        from repro.traces.mobility import (
            _community_walkers,
            _sample_positions,
        )

        config = FAST_COMMUNITY
        walkers = _community_walkers(config, random.Random(seed ^ 0xC0FFEE))
        positions = list(
            _sample_positions(walkers, config.tick, config.duration)
        )
        grid, reference = self._run_both(
            positions, config.radio_range, config.tick, config.num_nodes
        )
        assert self._records(grid) == self._records(reference)

    def test_generators_use_grid_kernel_unchanged_output(self):
        # The public generators must still produce the exact traces the
        # all-pairs implementation did (determinism contract per seed).
        trace = generate_community_trace(FAST_COMMUNITY, seed=3)
        again = generate_community_trace(FAST_COMMUNITY, seed=3)
        assert self._records(trace) == self._records(again)
