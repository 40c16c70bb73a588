"""Tests for user selection policy and engine property-based
invariants."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbt import ProtocolConfig
from repro.core.node import NodeState
from repro.net.medium import ContactBudget
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import NodeId

from conftest import make_metadata, make_node, make_query
from test_mbt_engine import Harness


class TestSelectionPolicy:
    def test_unknown_policy_rejected(self, registry):
        with pytest.raises(ValueError):
            NodeState(NodeId(0), registry, selection_policy="vibes")

    def test_all_selects_every_match(self, registry):
        node = make_node(registry)
        a = make_metadata(registry, uri="dtn://fox/a", name="news island s01e01")
        b = make_metadata(registry, uri="dtn://fox/b", name="news island s01e02")
        node.accept_metadata(a, 0.0)
        node.accept_metadata(b, 0.0)
        node.add_own_query(make_query(0, a.uri, ["island"]))
        assert node.wanted_uris(0.0) == {a.uri, b.uri}

    def test_best_selects_single_match(self, registry):
        node = make_node(registry)
        node.selection_policy = "best"
        low = make_metadata(registry, uri="dtn://fox/low",
                            name="news island s01e01", popularity=0.1)
        high = make_metadata(registry, uri="dtn://fox/high",
                             name="news island s01e02", popularity=0.9)
        node.accept_metadata(low, 0.0)
        node.accept_metadata(high, 0.0)
        node.add_own_query(make_query(0, low.uri, ["island"]))
        assert node.wanted_uris(0.0) == {high.uri}

    def test_best_prefers_verified_over_popular_fake(self, registry):
        node = make_node(registry)
        node.selection_policy = "best"
        node.verify_signatures = False  # gullible store...
        real = make_metadata(registry, uri="dtn://fox/real",
                             name="news island s01e01", popularity=0.3)
        fake = make_metadata(registry, uri="dtn://pirate/fake",
                             name="news island s01e01", popularity=0.95,
                             signed=False)
        node.accept_metadata(real, 0.0)
        node.accept_metadata(fake, 0.0)
        node.add_own_query(make_query(0, real.uri, ["island"]))
        # ...but a careful user still checks the publisher signature.
        assert node.wanted_uris(0.0) == {real.uri}

    def test_best_policy_end_to_end(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=12, num_days=4), seed=7
        )
        result = Simulation(
            trace,
            SimulationConfig(seed=7, files_per_day=20, selection_policy="best"),
        ).run()
        assert 0.0 <= result.file_delivery_ratio <= 1.0

    def test_best_helps_under_unverified_pollution(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=16, num_days=6), seed=7
        )
        base = SimulationConfig(
            seed=7, files_per_day=25, fake_files_per_day=12,
            malicious_fraction=0.2, verify_signatures=False,
        )
        select_all = Simulation(trace, base).run()
        select_best = Simulation(
            trace, replace(base, selection_policy="best")
        ).run()
        assert select_best.file_delivery_ratio >= (
            select_all.file_delivery_ratio - 0.02
        )


# ------------------------------------------------------- engine properties


@st.composite
def contact_scenarios(draw):
    """A random small clique with random stores and queries."""
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    num_records = draw(st.integers(min_value=1, max_value=5))
    meta_budget = draw(st.integers(min_value=0, max_value=6))
    piece_budget = draw(st.integers(min_value=0, max_value=6))
    holders = [
        draw(st.sets(st.integers(min_value=0, max_value=num_nodes - 1),
                     max_size=num_nodes))
        for __ in range(num_records)
    ]
    piece_holders = [
        draw(st.sets(st.integers(min_value=0, max_value=num_nodes - 1),
                     max_size=num_nodes))
        for __ in range(num_records)
    ]
    queriers = [
        draw(st.sets(st.integers(min_value=0, max_value=num_nodes - 1),
                     max_size=num_nodes))
        for __ in range(num_records)
    ]
    tft = draw(st.booleans())
    return (num_nodes, holders, piece_holders, queriers,
            meta_budget, piece_budget, tft)


@given(scenario=contact_scenarios())
@settings(max_examples=60, deadline=None)
def test_contact_processing_invariants(scenario):
    (num_nodes, holders, piece_holders, queriers,
     meta_budget, piece_budget, tft) = scenario
    from repro.catalog.metadata import PublisherRegistry

    registry = PublisherRegistry(master_seed=42)
    registry.register("fox")
    config = ProtocolConfig(
        budget=ContactBudget(meta_budget, piece_budget), tit_for_tat=tft
    )
    h = Harness(registry, num_nodes=num_nodes, config=config)

    records = []
    for i in range(len(holders)):
        record = make_metadata(
            registry, uri=f"dtn://fox/p{i}",
            name=f"news island s01e{i + 1:02d}", popularity=0.1 * (i + 1) % 1.0,
        )
        records.append(record)
        for node in holders[i]:
            h.states[NodeId(node)].accept_metadata(record, 0.0)
        for node in piece_holders[i]:
            h.give_piece(node, record, 0)
        for node in queriers[i]:
            h.states[NodeId(node)].add_own_query(
                make_query(node, record.uri, [f"s01e{i + 1:02d}"])
            )

    before_meta = {
        n: set(h.states[n].metadata.uris) for n in h.states
    }
    h.contact(list(range(num_nodes)))

    # Invariant 1: budgets bound transmissions.
    total_meta_sent = sum(s.stats.metadata_sent for s in h.states.values())
    total_piece_sent = sum(s.stats.pieces_sent for s in h.states.values())
    assert total_meta_sent <= meta_budget
    assert total_piece_sent <= piece_budget

    # Invariant 2: stores only grow, and only with catalog records.
    valid_uris = {r.uri for r in records}
    for n, state in h.states.items():
        assert before_meta[n] <= set(state.metadata.uris)
        assert set(state.metadata.uris) <= valid_uris

    # Invariant 3: every stored piece verifies against its metadata.
    for state in h.states.values():
        for uri in state.pieces.uris:
            record = state.metadata.get(uri)
            assert record is not None  # pieces never outlive metadata
            assert state.pieces.pieces_of(uri) <= set(range(record.num_pieces))

    # Invariant 4: credits are non-negative and only for real peers.
    for state in h.states.values():
        for peer, credit in state.credits.as_mapping().items():
            assert credit >= 0.0
            assert peer != state.node
