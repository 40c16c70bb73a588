"""Tests for MaxProp, direct delivery and the podcasting baseline."""

from __future__ import annotations

import math

import pytest

from repro.core.podcast import PodcastConfig, PodcastSimulation
from repro.routing.base import Message, simulate_routing
from repro.routing.direct import DirectDeliveryRouter
from repro.routing.epidemic import EpidemicRouter
from repro.routing.maxprop import MaxPropRouter
from repro.traces.base import ContactTrace
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import DAY, NodeId

from conftest import pair_contact


def msg(msg_id: int, src: int, dst: int, created: float = 0.0, ttl: float = 10 * DAY):
    return Message(msg_id, NodeId(src), NodeId(dst), created, ttl)


class TestDirectDelivery:
    def test_delivers_only_on_direct_contact(self):
        trace = ContactTrace(
            [pair_contact(10.0, 20.0, 0, 1), pair_contact(30.0, 40.0, 1, 2)]
        )
        direct = simulate_routing(trace, [msg(0, 0, 2)], DirectDeliveryRouter())
        assert direct.delivered == 0
        met = simulate_routing(trace, [msg(0, 0, 1)], DirectDeliveryRouter())
        assert met.delivered == 1
        assert met.transmissions == 1

    def test_lower_bound_of_epidemic(self):
        trace = generate_dieselnet_trace(DieselNetConfig(num_buses=12, num_days=5), 0)
        messages = [
            msg(i, int(trace.nodes[i % 6]), int(trace.nodes[-1 - i % 4]))
            for i in range(20)
        ]
        direct = simulate_routing(trace, messages, DirectDeliveryRouter())
        epidemic = simulate_routing(trace, messages, EpidemicRouter())
        assert direct.delivered <= epidemic.delivered
        assert direct.transmissions <= epidemic.transmissions


class TestMaxProp:
    def test_meeting_probabilities_normalize(self):
        router = MaxPropRouter()
        router.on_encounter(NodeId(0), NodeId(1), 0.0)
        router.on_encounter(NodeId(0), NodeId(1), 1.0)
        router.on_encounter(NodeId(0), NodeId(2), 2.0)
        p1 = router.meeting_probability(NodeId(0), NodeId(1))
        p2 = router.meeting_probability(NodeId(0), NodeId(2))
        assert p1 == pytest.approx(2 / 3)
        assert p2 == pytest.approx(1 / 3)
        assert p1 + p2 == pytest.approx(1.0)

    def test_unknown_peer_probability_zero(self):
        router = MaxPropRouter()
        assert router.meeting_probability(NodeId(0), NodeId(9)) == 0.0

    def test_path_cost_prefers_frequent_paths(self):
        router = MaxPropRouter()
        # Node 1 mostly meets 3; node 2 mostly meets 0 and rarely 3.
        for __ in range(8):
            router.on_encounter(NodeId(1), NodeId(3), 0.0)
        for __ in range(2):
            router.on_encounter(NodeId(1), NodeId(0), 0.0)
        router.on_encounter(NodeId(2), NodeId(3), 0.0)
        for __ in range(9):
            router.on_encounter(NodeId(2), NodeId(0), 0.0)
        via_1 = router.path_cost(NodeId(1), NodeId(3))
        via_2 = router.path_cost(NodeId(2), NodeId(3))
        assert via_1 < via_2

    def test_path_cost_identity_and_unknown(self):
        router = MaxPropRouter()
        assert router.path_cost(NodeId(0), NodeId(0)) == 0.0
        assert math.isinf(router.path_cost(NodeId(0), NodeId(9)))

    def test_acked_messages_stop_spreading(self):
        trace = ContactTrace(
            [
                pair_contact(10.0, 20.0, 0, 1),  # delivery
                pair_contact(30.0, 40.0, 0, 2),  # would re-spread
            ]
        )
        router = MaxPropRouter()
        result = simulate_routing(trace, [msg(0, 0, 1)], router)
        assert result.delivered == 1
        assert router.is_acked(0)
        assert result.transmissions == 1  # no copy to node 2 after ack

    def test_hop_counts_tracked(self):
        trace = ContactTrace(
            [pair_contact(10.0, 20.0, 0, 1), pair_contact(30.0, 40.0, 1, 2)]
        )
        router = MaxPropRouter()
        simulate_routing(trace, [msg(0, 0, 3)], router)
        assert router._hops[(NodeId(1), 0)] == 1
        assert router._hops[(NodeId(2), 0)] == 2

    def test_delivers_on_dieselnet(self):
        trace = generate_dieselnet_trace(DieselNetConfig(num_buses=14, num_days=6), 1)
        messages = [
            msg(i, int(trace.nodes[i % 7]), int(trace.nodes[-1 - i % 7]))
            for i in range(30)
        ]
        result = simulate_routing(trace, messages, MaxPropRouter(),
                                  transfers_per_contact=10)
        assert result.delivery_ratio > 0.5

    def test_cheaper_than_epidemic_with_acks(self):
        trace = generate_dieselnet_trace(DieselNetConfig(num_buses=14, num_days=6), 1)
        messages = [
            msg(i, int(trace.nodes[i % 7]), int(trace.nodes[-1 - i % 7]))
            for i in range(30)
        ]
        epidemic = simulate_routing(trace, messages, EpidemicRouter())
        maxprop = simulate_routing(trace, messages, MaxPropRouter())
        assert maxprop.transmissions < epidemic.transmissions


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
