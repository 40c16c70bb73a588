"""Tests for encrypted choking (§IV-B future work) and group metrics."""

from __future__ import annotations

from unittest import mock

from repro.core import mbt
from repro.core.mbt import ProtocolConfig, SchedulingMode
from repro.core.strategies import AdversaryPlan
from repro.net.medium import ContactBudget
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import NodeId, Uri

from conftest import make_metadata, make_query

from test_mbt_engine import Harness


class TestUnchokedSet:
    def _engine(self, registry, **kwargs) -> Harness:
        config = ProtocolConfig(
            tit_for_tat=True, encrypted_choking=True,
            budget=ContactBudget(2, 2), **kwargs,
        )
        return Harness(registry, num_nodes=3, config=config)

    def test_zero_credit_receiver_choked(self, registry):
        h = self._engine(registry)
        sender = h.states[NodeId(0)]
        receivers = frozenset({NodeId(1), NodeId(2)})
        assert h.engine._unchoked(sender, receivers) == frozenset()

    def test_contributor_unchoked(self, registry):
        h = self._engine(registry)
        sender = h.states[NodeId(0)]
        sender.credits.reward_unrequested(NodeId(1), 0.1)
        receivers = frozenset({NodeId(1), NodeId(2)})
        assert h.engine._unchoked(sender, receivers) == frozenset({NodeId(1)})

    def test_threshold_raises_the_bar(self, registry):
        h = self._engine(registry)
        sender = h.states[NodeId(0)]
        sender.credits.reward_unrequested(NodeId(1), 0.5)
        sender.credits.reward_requested(NodeId(2))  # 5.0
        receivers = frozenset({NodeId(1), NodeId(2)})
        with mock.patch.object(mbt, "CHOKE_CREDIT_THRESHOLD", 1.0):
            assert h.engine._unchoked(sender, receivers) == frozenset({NodeId(2)})


class TestChokedExchange:
    def test_metadata_phase_stays_open(self, registry):
        config = ProtocolConfig(tit_for_tat=True, encrypted_choking=True)
        h = Harness(registry, config=config)
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1])
        assert record.uri in h.states[NodeId(1)].metadata

    def test_pieces_flow_after_bootstrap(self, registry):
        # First contact: metadata both ways builds credit; pieces to a
        # zero-credit peer are withheld. Second contact: unchoked.
        config = ProtocolConfig(
            tit_for_tat=True, encrypted_choking=True, budget=ContactBudget(2, 2)
        )
        h = Harness(registry, config=config)
        file_record = make_metadata(registry, uri="dtn://fox/file")
        advert = make_metadata(registry, uri="dtn://fox/ad")
        h.give_piece(0, file_record, 0)
        # Node 1 has something to contribute back (an advert node 0 lacks).
        h.states[NodeId(1)].accept_metadata(advert, 0.0)
        h.contact([0, 1], now=0.0)
        h.contact([0, 1], now=100.0)
        assert h.states[NodeId(1)].pieces.pieces_of(file_record.uri) == {0}

    def test_pure_free_rider_never_receives_pieces(self, registry):
        config = ProtocolConfig(
            tit_for_tat=True, encrypted_choking=True, budget=ContactBudget(2, 2)
        )
        h = Harness(registry, selfish=[1], config=config)
        record = make_metadata(registry)
        h.give_piece(0, record, 0)
        for t in (0.0, 100.0, 200.0):
            h.contact([0, 1], now=t)
        # Metadata arrived (open channel) but no piece ever did.
        assert record.uri in h.states[NodeId(1)].metadata
        assert h.states[NodeId(1)].pieces.pieces_of(record.uri) == frozenset()

    def test_access_node_seeds_unconditionally(self, registry):
        # Seeds never choke (BitTorrent-seed behaviour): even a
        # zero-credit peer receives pieces from an Internet-access node.
        config = ProtocolConfig(
            tit_for_tat=True, encrypted_choking=True, budget=ContactBudget(2, 2)
        )
        h = Harness(registry, access=[0], config=config)
        record = make_metadata(registry)
        h.give_piece(0, record, 0)
        h.contact([0, 1], now=0.0)
        assert h.states[NodeId(1)].pieces.pieces_of(record.uri) == {0}

    def test_choking_off_by_default(self):
        assert ProtocolConfig().encrypted_choking is False


class TestGroupMetrics:
    def test_ratios_for_subset(self):
        metrics = MetricsCollector()
        for node in (1, 2, 3):
            metrics.register_query(make_query(node, "dtn://fox/a", ["a"]), False)
        metrics.on_file_complete(NodeId(1), Uri("dtn://fox/a"), 1.0)
        meta, file_ratio, count = metrics.ratios_for({NodeId(1), NodeId(2)})
        assert count == 2
        assert file_ratio == 0.5
        assert meta == 0.5

    def test_empty_subset(self):
        metrics = MetricsCollector()
        assert metrics.ratios_for(set()) == (0.0, 0.0, 0)


class TestChokingEndToEnd:
    def _run(self, encrypted_choking: bool):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=20, num_days=8), seed=0
        )
        config = SimulationConfig(
            seed=0, files_per_day=40, ttl_days=3.0, tit_for_tat=True,
            encrypted_choking=encrypted_choking,
            adversaries=AdversaryPlan(fraction=0.4, mix=(("free_rider", 1.0),)),
            scheduling=SchedulingMode.CYCLIC,
            metadata_per_contact=2, files_per_contact=2,
            frequent_contact_max_gap_days=3.0,
        )
        sim = Simulation(trace, config)
        sim.run()
        coop = frozenset(
            n for n in sim.states
            if n not in sim.adversary_nodes and n not in sim.access_nodes
        )
        riders = frozenset(
            n for n in sim.states
            if n in sim.adversary_nodes and n not in sim.access_nodes
        )
        __, coop_file, __ = sim.metrics.ratios_for(coop)
        __, rider_file, rider_count = sim.metrics.ratios_for(riders)
        assert rider_count > 0
        return coop_file, rider_file

    def test_choking_inverts_the_free_riding_payoff(self):
        coop_plain, rider_plain = self._run(encrypted_choking=False)
        coop_choke, rider_choke = self._run(encrypted_choking=True)
        # Without choking, free-riding pays (riders still receive
        # everything while saving their own battery/bandwidth).
        assert rider_plain >= coop_plain - 0.05
        # With choking, cooperators come out ahead...
        assert coop_choke > rider_choke
        # ...because the riders' delivery drops distinctly.
        assert rider_choke < rider_plain - 0.05
