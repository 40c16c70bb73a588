"""Unit tests for the space-time graph analysis (§II-A oracle)."""

from __future__ import annotations

import pytest

from repro.sim.spacetime import (
    earliest_arrival,
    oracle_file_delivery_bound,
    reachability_ratio,
)
from repro.traces.base import ContactTrace
from repro.types import DAY, NodeId

from conftest import clique_contact, pair_contact


def chain() -> ContactTrace:
    return ContactTrace(
        [
            pair_contact(100.0, 110.0, 0, 1),
            pair_contact(200.0, 210.0, 1, 2),
            pair_contact(300.0, 310.0, 2, 3),
        ]
    )


class TestEarliestArrival:
    def test_chain_propagation(self):
        result = earliest_arrival(chain(), [NodeId(0)], start_time=0.0)
        assert result.arrival[NodeId(0)] == 0.0
        assert result.arrival[NodeId(1)] == 100.0
        assert result.arrival[NodeId(2)] == 200.0
        assert result.arrival[NodeId(3)] == 300.0

    def test_unreachable_node_absent(self):
        result = earliest_arrival(chain(), [NodeId(3)], start_time=0.0)
        # Contacts are ordered against node 3: nothing flows backwards.
        assert NodeId(0) not in result.arrival

    def test_start_time_after_contact_skips_it(self):
        result = earliest_arrival(chain(), [NodeId(0)], start_time=150.0)
        assert NodeId(1) not in result.arrival

    def test_data_can_join_open_contact(self):
        # A long contact still open when data arrives relays it.
        trace = ContactTrace(
            [
                pair_contact(0.0, 1000.0, 1, 2),  # long-lived link
                pair_contact(500.0, 510.0, 0, 1),
            ]
        )
        result = earliest_arrival(trace, [NodeId(0)], start_time=0.0)
        assert result.arrival[NodeId(1)] == 500.0
        assert result.arrival[NodeId(2)] == 500.0

    def test_clique_contact_reaches_all_members(self):
        trace = ContactTrace([clique_contact(100.0, 200.0, [0, 1, 2, 3])])
        result = earliest_arrival(trace, [NodeId(0)], start_time=0.0)
        for node in (1, 2, 3):
            assert result.arrival[NodeId(node)] == 100.0

    def test_multiple_sources_take_min(self):
        result = earliest_arrival(chain(), [NodeId(0), NodeId(2)], start_time=0.0)
        assert result.arrival[NodeId(3)] == 300.0
        assert result.arrival[NodeId(1)] == 100.0

    def test_reachable_by_deadline(self):
        result = earliest_arrival(chain(), [NodeId(0)], start_time=0.0)
        assert result.reachable_by(250.0) == {NodeId(0), NodeId(1), NodeId(2)}

    def test_delay_to(self):
        result = earliest_arrival(chain(), [NodeId(0)], start_time=50.0)
        assert result.arrival[NodeId(1)] - result.start_time == 50.0


class TestReachability:
    def test_ratio_excludes_sources(self):
        ratio = reachability_ratio(
            chain(), [NodeId(0)], start_time=0.0, deadline=250.0
        )
        # Nodes 1 and 2 of the 3 non-source nodes reached.
        assert ratio == pytest.approx(2 / 3)

    def test_ratio_with_explicit_population(self):
        ratio = reachability_ratio(
            chain(), [NodeId(0)], 0.0, 250.0, population=[NodeId(1), NodeId(3)]
        )
        assert ratio == pytest.approx(0.5)

    def test_empty_population(self):
        ratio = reachability_ratio(
            chain(), list(chain().nodes), 0.0, 1e9
        )
        assert ratio == 0.0

    def test_oracle_bound_bounds_everything(self):
        bound = oracle_file_delivery_bound(
            chain(), access_nodes=[NodeId(0)], generation_time=0.0, ttl=DAY
        )
        assert bound == 1.0  # all three non-access nodes reachable

    def test_oracle_bound_respects_ttl(self):
        bound = oracle_file_delivery_bound(
            chain(), access_nodes=[NodeId(0)], generation_time=0.0, ttl=250.0
        )
        assert bound == pytest.approx(2 / 3)

