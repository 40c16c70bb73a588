"""Scenario tests for the MBT protocol engine."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.catalog.files import PIECE_SIZE, FileDescriptor, piece_payload
from repro.catalog.server import FileServer, MetadataServer
from repro.core.mbt import (
    POPULAR_FILE_DOWNLOADS,
    MobileBitTorrent,
    ProtocolConfig,
    ProtocolVariant,
    SchedulingMode,
)
from repro.core.node import NodeState
from repro.net.medium import ContactBudget
from repro.sim.metrics import MetricsCollector
from repro.types import NodeId

from conftest import clique_contact, make_metadata, make_node, make_query


class Harness:
    """A hand-wired engine over explicit node states."""

    def __init__(
        self,
        registry,
        num_nodes: int = 3,
        access: Sequence[int] = (),
        selfish: Sequence[int] = (),
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.registry = registry
        self.states: Dict[NodeId, NodeState] = {
            NodeId(i): make_node(registry, node=i, internet_access=i in access,
                                 selfish=i in selfish)
            for i in range(num_nodes)
        }
        self.metadata_server = MetadataServer()
        self.file_server = FileServer()
        self.metrics = MetricsCollector()
        self.engine = MobileBitTorrent(
            self.states,
            self.metadata_server,
            self.file_server,
            self.metrics,
            config or ProtocolConfig(),
        )

    def publish(self, record, pieces: bool = True) -> None:
        self.metadata_server.publish(record)
        if pieces:
            self.file_server.publish(
                FileDescriptor(
                    uri=record.uri,
                    title_tokens=tuple(record.name.split()),
                    publisher=record.publisher,
                    size_bytes=record.num_pieces * PIECE_SIZE,
                    popularity=record.popularity,
                    created_at=record.created_at,
                    ttl=record.ttl,
                )
            )

    def publish_decoys(self, count: int) -> list:
        """Publish ``count`` files more popular than any test record."""
        decoys = [
            make_metadata(self.registry, uri=f"dtn://fox/decoy{i}",
                          name=f"decoy show s01e{i:02d}", popularity=0.99 - 0.01 * i)
            for i in range(count)
        ]
        for record in decoys:
            self.publish(record)
        return decoys

    def give_piece(self, node: int, record, index: int) -> None:
        state = self.states[NodeId(node)]
        state.accept_metadata(record, 0.0)
        state.accept_piece(
            record.uri, index, piece_payload(record.uri, index), record.checksums[index]
        )

    def contact(self, members: Sequence[int], now: float = 0.0) -> None:
        self.engine.handle_contact(clique_contact(now, now + 60.0, members), now)


class TestMetadataPhase:
    def test_broadcast_reaches_all_members(self, registry):
        h = Harness(registry, num_nodes=4)
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1, 2, 3])
        for i in range(4):
            assert record.uri in h.states[NodeId(i)].metadata

    def test_budget_limits_transmissions(self, registry):
        h = Harness(registry, config=ProtocolConfig(budget=ContactBudget(2, 0)))
        for i in range(5):
            h.states[NodeId(0)].accept_metadata(
                make_metadata(registry, uri=f"dtn://fox/{i}"), 0.0
            )
        h.contact([0, 1])
        assert len(h.states[NodeId(1)].metadata) == 2
        assert h.engine.counters.metadata_transmissions == 2

    def test_requested_metadata_sent_under_tight_budget(self, registry):
        h = Harness(registry, config=ProtocolConfig(budget=ContactBudget(1, 0)))
        wanted = make_metadata(registry, uri="dtn://fox/want",
                               name="news island s01e01", popularity=0.01)
        noise = make_metadata(registry, uri="dtn://fox/noise",
                              name="drama desert s01e02", popularity=0.99)
        h.states[NodeId(0)].accept_metadata(wanted, 0.0)
        h.states[NodeId(0)].accept_metadata(noise, 0.0)
        h.states[NodeId(1)].add_own_query(make_query(1, wanted.uri, ["island"]))
        h.contact([0, 1])
        assert wanted.uri in h.states[NodeId(1)].metadata
        assert noise.uri not in h.states[NodeId(1)].metadata

    def test_mbt_qm_has_no_metadata_phase(self, registry):
        h = Harness(registry, config=ProtocolConfig(variant=ProtocolVariant.MBT_QM))
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1])
        assert record.uri not in h.states[NodeId(1)].metadata

    def test_metadata_delivery_recorded(self, registry):
        h = Harness(registry)
        record = make_metadata(registry, name="news island s01e01")
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        query = make_query(1, record.uri, ["island"])
        h.states[NodeId(1)].add_own_query(query)
        h.metrics.register_query(query, access_node=False)
        h.contact([0, 1])
        assert h.metrics.records[0].metadata_delivered

    def test_zero_budget_sends_nothing(self, registry):
        h = Harness(registry, config=ProtocolConfig(budget=ContactBudget(0, 0)))
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1])
        assert record.uri not in h.states[NodeId(1)].metadata


class TestPiecePhase:
    def test_piece_broadcast_with_attached_metadata(self, registry):
        h = Harness(registry)
        record = make_metadata(registry)
        h.give_piece(0, record, 0)
        h.contact([0, 1, 2])
        for i in (1, 2):
            state = h.states[NodeId(i)]
            assert state.pieces.pieces_of(record.uri) == {0}
            assert record.uri in state.metadata  # attached metadata stored

    def test_file_completion_recorded(self, registry):
        h = Harness(registry)
        record = make_metadata(registry, name="news island s01e01")
        h.give_piece(0, record, 0)
        query = make_query(1, record.uri, ["island"])
        h.states[NodeId(1)].add_own_query(query)
        h.metrics.register_query(query, access_node=False)
        h.contact([0, 1])
        assert h.metrics.records[0].file_delivered
        assert h.states[NodeId(1)].stats.files_completed == 1

    def test_multi_piece_file_requires_all_pieces(self, registry):
        h = Harness(registry, config=ProtocolConfig(budget=ContactBudget(5, 1)))
        record = make_metadata(registry, num_pieces=2, name="news island s01e01")
        h.give_piece(0, record, 0)
        h.give_piece(0, record, 1)
        query = make_query(1, record.uri, ["island"])
        h.states[NodeId(1)].add_own_query(query)
        h.metrics.register_query(query, access_node=False)
        h.contact([0, 1], now=0.0)
        assert not h.metrics.records[0].file_delivered  # one piece only
        h.contact([0, 1], now=100.0)
        assert h.metrics.records[0].file_delivered

    def test_requested_piece_beats_popular_piece(self, registry):
        h = Harness(registry, config=ProtocolConfig(budget=ContactBudget(0, 1)))
        wanted = make_metadata(registry, uri="dtn://fox/want",
                               name="news island s01e01", popularity=0.01)
        noise = make_metadata(registry, uri="dtn://fox/noise",
                              name="drama desert s01e02", popularity=0.99)
        h.give_piece(0, wanted, 0)
        h.give_piece(0, noise, 0)
        receiver = h.states[NodeId(1)]
        receiver.accept_metadata(wanted, 0.0)
        receiver.add_own_query(make_query(1, wanted.uri, ["island"]))
        h.contact([0, 1])
        assert receiver.pieces.pieces_of(wanted.uri) == {0}
        assert receiver.pieces.pieces_of(noise.uri) == frozenset()

    def test_credits_rewarded_on_reception(self, registry):
        h = Harness(registry)
        record = make_metadata(registry, name="news island s01e01", popularity=0.4)
        h.give_piece(0, record, 0)
        wanting = h.states[NodeId(1)]
        wanting.accept_metadata(record, 0.0)
        wanting.add_own_query(make_query(1, record.uri, ["island"]))
        bystander = h.states[NodeId(2)]
        h.contact([0, 1, 2])
        # Node 1 requested the file: sender earns the full 5 credits.
        assert wanting.credits.credit_of(NodeId(0)) >= 5.0
        # Node 2 got it unrequested: sender earns the popularity value.
        assert 0.0 < bystander.credits.credit_of(NodeId(0)) < 5.0


class TestSchedulingModes:
    def test_selfish_node_sends_nothing_in_cyclic_mode(self, registry):
        config = ProtocolConfig(
            tit_for_tat=True, scheduling=SchedulingMode.CYCLIC,
            budget=ContactBudget(5, 5),
        )
        h = Harness(registry, selfish=[0], config=config)
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1, 2])
        assert record.uri not in h.states[NodeId(1)].metadata
        assert h.states[NodeId(0)].stats.metadata_sent == 0

    def test_selfish_node_still_receives(self, registry):
        config = ProtocolConfig(tit_for_tat=True, budget=ContactBudget(5, 5))
        h = Harness(registry, selfish=[1], config=config)
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1])
        assert record.uri in h.states[NodeId(1)].metadata

    def test_cooperative_skips_selfish_holders(self, registry):
        h = Harness(registry, selfish=[0], config=ProtocolConfig())
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1])
        assert record.uri not in h.states[NodeId(1)].metadata

    def test_default_scheduling_follows_policy(self):
        assert ProtocolConfig(tit_for_tat=False).effective_scheduling() is (
            SchedulingMode.COORDINATOR
        )
        assert ProtocolConfig(tit_for_tat=True).effective_scheduling() is (
            SchedulingMode.CYCLIC
        )

    def test_explicit_scheduling_override(self):
        config = ProtocolConfig(tit_for_tat=True, scheduling=SchedulingMode.COORDINATOR)
        assert config.effective_scheduling() is SchedulingMode.COORDINATOR

    def test_cyclic_mode_shares_budget_between_senders(self, registry):
        config = ProtocolConfig(
            scheduling=SchedulingMode.CYCLIC, budget=ContactBudget(4, 0)
        )
        h = Harness(registry, config=config)
        for node in (0, 1):
            for i in range(3):
                h.states[NodeId(node)].accept_metadata(
                    make_metadata(registry, uri=f"dtn://fox/{node}-{i}"), 0.0
                )
        h.contact([0, 1])
        assert h.states[NodeId(0)].stats.metadata_sent == 2
        assert h.states[NodeId(1)].stats.metadata_sent == 2


class TestPairwiseMedium:
    def test_single_receiver_per_transmission(self, registry):
        h = Harness(registry, config=ProtocolConfig(broadcast=False,
                                                    budget=ContactBudget(1, 0)))
        record = make_metadata(registry)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.contact([0, 1, 2])
        received = [
            i for i in (1, 2) if record.uri in h.states[NodeId(i)].metadata
        ]
        assert len(received) == 1

    def test_requester_preferred_as_receiver(self, registry):
        h = Harness(registry, config=ProtocolConfig(broadcast=False,
                                                    budget=ContactBudget(1, 0)))
        record = make_metadata(registry, name="news island s01e01")
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.states[NodeId(2)].add_own_query(make_query(2, record.uri, ["island"]))
        h.contact([0, 1, 2])
        assert record.uri in h.states[NodeId(2)].metadata
        assert record.uri not in h.states[NodeId(1)].metadata


class TestInternetSync:
    def test_access_node_downloads_wanted_file(self, registry):
        h = Harness(registry, access=[0])
        record = make_metadata(registry, name="news island s01e01")
        h.publish(record)
        query = make_query(0, record.uri, ["island"])
        h.states[NodeId(0)].add_own_query(query)
        h.metrics.register_query(query, access_node=True)
        h.engine.internet_sync(NodeId(0), now=0.0)
        state = h.states[NodeId(0)]
        assert state.pieces.is_complete(record.uri, record.num_pieces)
        assert h.metrics.records[0].file_delivered

    def test_non_access_node_sync_is_noop(self, registry):
        h = Harness(registry, access=[])
        h.engine.internet_sync(NodeId(0), now=0.0)
        assert h.states[NodeId(0)].stats.internet_syncs == 0

    def test_push_distributes_popular_metadata(self, registry):
        h = Harness(registry, access=[0])
        record = make_metadata(registry, popularity=0.9)
        h.publish(record)
        h.engine.internet_sync(NodeId(0), now=0.0)
        assert record.uri in h.states[NodeId(0)].metadata

    def test_no_push_under_mbt_qm(self, registry):
        for variant, expect in (
            (ProtocolVariant.MBT, True),
            (ProtocolVariant.MBT_QM, False),
        ):
            h = Harness(registry, access=[0], config=ProtocolConfig(variant=variant))
            # More popular decoys use up the seeding downloads, which
            # would otherwise fetch the record (and its metadata).
            h.publish_decoys(POPULAR_FILE_DOWNLOADS)
            record = make_metadata(registry, popularity=0.9)
            h.publish(record)
            h.engine.internet_sync(NodeId(0), now=0.0)
            assert (record.uri in h.states[NodeId(0)].metadata) is expect, variant

    def test_proxy_download_for_heard_requests(self, registry):
        h = Harness(registry, access=[0])
        record = make_metadata(registry, name="news island s01e01", popularity=0.0)
        h.publish(record)
        # Node 1 wants the file and meets node 0, which hears the
        # request in node 1's hello...
        h.states[NodeId(1)].accept_metadata(record, 0.0)
        h.states[NodeId(1)].add_own_query(make_query(1, record.uri, ["island"]))
        h.contact([0, 1], now=0.0)
        # ...then node 0 syncs and fetches the file for node 1.
        h.engine.internet_sync(NodeId(0), now=10.0)
        assert h.states[NodeId(0)].pieces.is_complete(record.uri, record.num_pieces)

    def test_foreign_query_download_only_under_mbt(self, registry):
        for variant, expect in (
            (ProtocolVariant.MBT, True),
            (ProtocolVariant.MBT_Q, False),
        ):
            h = Harness(registry, access=[0], config=ProtocolConfig(variant=variant))
            h.publish_decoys(POPULAR_FILE_DOWNLOADS)
            record = make_metadata(registry, name="news island s01e01",
                                   popularity=0.0)
            h.publish(record)
            h.states[NodeId(0)].store_foreign_queries(
                NodeId(1), [make_query(1, record.uri, ["island"])]
            )
            h.engine.internet_sync(NodeId(0), now=0.0)
            complete = h.states[NodeId(0)].pieces.is_complete(
                record.uri, record.num_pieces
            )
            assert complete is expect, variant

    def test_seeds_popular_files(self, registry):
        h = Harness(registry, access=[0])
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        h.publish(low)
        highs = h.publish_decoys(POPULAR_FILE_DOWNLOADS)
        h.engine.internet_sync(NodeId(0), now=0.0)
        state = h.states[NodeId(0)]
        assert all(state.pieces.is_complete(high.uri, 1) for high in highs)
        assert not state.pieces.is_complete(low.uri, 1)


class TestQueryDistribution:
    def test_frequent_contact_queries_stored_under_mbt(self, registry):
        h = Harness(registry)
        h.states[NodeId(0)].frequent_contacts = {NodeId(1)}
        h.states[NodeId(1)].add_own_query(make_query(1, "dtn://fox/x", ["x1"]))
        h.contact([0, 1])
        assert len(h.states[NodeId(0)].foreign_queries(0.0)) == 1

    def test_not_stored_under_mbt_q(self, registry):
        h = Harness(registry, config=ProtocolConfig(variant=ProtocolVariant.MBT_Q))
        h.states[NodeId(0)].frequent_contacts = {NodeId(1)}
        h.states[NodeId(1)].add_own_query(make_query(1, "dtn://fox/x", ["x1"]))
        h.contact([0, 1])
        assert h.states[NodeId(0)].foreign_queries(0.0) == []

    def test_not_stored_for_infrequent_contact(self, registry):
        h = Harness(registry)
        h.states[NodeId(1)].add_own_query(make_query(1, "dtn://fox/x", ["x1"]))
        h.contact([0, 1])
        assert h.states[NodeId(0)].foreign_queries(0.0) == []

    def test_selfish_node_does_not_carry_queries(self, registry):
        h = Harness(registry, selfish=[0])
        h.states[NodeId(0)].frequent_contacts = {NodeId(1)}
        h.states[NodeId(1)].add_own_query(make_query(1, "dtn://fox/x", ["x1"]))
        h.contact([0, 1])
        assert h.states[NodeId(0)].foreign_queries(0.0) == []


class TestExpiry:
    def test_expire_all_cleans_nodes_and_servers(self, registry):
        h = Harness(registry)
        record = make_metadata(registry, ttl=100.0)
        h.publish(record)
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.engine.expire_all(now=200.0)
        assert record.uri not in h.metadata_server
        assert record.uri not in h.file_server
        assert len(h.states[NodeId(0)].metadata) == 0
