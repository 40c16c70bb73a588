"""Scenario tests for the MBT protocol engine."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.files import PIECE_SIZE, FileDescriptor, piece_payload
from repro.catalog.metadata import PublisherRegistry
from repro.catalog.server import FileServer, MetadataServer
from repro.core.cliqueview import CliqueView
from repro.core.discovery import ScheduledMetadata
from repro.core.mbt import (
    POPULAR_FILE_DOWNLOADS,
    PROXY_DOWNLOADS,
    PULL_LIMIT,
    PUSH_LIMIT,
    MobileBitTorrent,
    ProtocolConfig,
    ProtocolVariant,
    SchedulingMode,
)
from repro.core.node import EVICTION_POLICIES, NodeState
from repro.core.strategies import STRATEGIES
from repro.net.medium import ContactBudget
from repro.sim.metrics import MetricsCollector
from repro.types import DAY, NodeId, Uri

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


class TestHolderBookkeeping:
    def test_hidden_holder_re_receiving_a_record_joins_holders(self, registry):
        # An under-reporter keeps its holdings out of the candidates, so a
        # sender may deliver a record it already stores. The clique view
        # must list it as a holder afterwards, even when its copy reached
        # the store after the view was built.
        h = Harness(registry, num_nodes=2)
        sender, hider = NodeId(0), NodeId(1)
        h.states[hider].strategy = STRATEGIES["under_reporter"]
        record = make_metadata(registry)
        h.states[sender].accept_metadata(record, 0.0)
        view = CliqueView(h.states, 0.0)
        h.states[hider].accept_metadata(record, 0.0)
        cand = ScheduledMetadata(record, {sender}, set(), set(), {hider})
        members = frozenset(h.states)
        assert h.engine._transmit_metadata(h.states, members, cand, sender, 0.0, view)
        assert h.states[hider].stats.metadata_duplicates == 1
        assert view.md_holders[record.uri] == {sender, hider}


def _reference_sync(engine: MobileBitTorrent, node: NodeId, now: float) -> None:
    """The Internet sync as it was before re-deliveries were answered by
    identity: every server record goes through ``_accept_metadata``."""
    state = engine._states[node]
    if node in engine._down or not state.internet_access:
        return
    state.stats.internet_syncs += 1
    engine.counters.internet_syncs += 1
    server = engine._metadata_server
    variant = engine._config.variant
    for query in state.own_queries(now):
        server.record_request(query.target_uri, node, now)
        for record in server.search(query.tokens, now, limit=PULL_LIMIT):
            engine._accept_metadata(state, record, now)
    if variant.distributes_queries:
        for query in state.foreign_queries(now):
            for record in server.search(query.tokens, now, limit=PULL_LIMIT):
                engine._accept_metadata(state, record, now)
    for uri in sorted(state.wanted_uris(now)):
        engine._download_from_internet(state, uri, now)
    if variant.distributes_metadata:
        for record in server.top_popular(now, PUSH_LIMIT, exclude=state.metadata.uris):
            engine._accept_metadata(state, record, now)
    proxied = 0
    for uri in state.top_peer_requests(now, engine._config.request_memory):
        if proxied >= PROXY_DOWNLOADS:
            break
        record = server.get(uri)
        if record is None or not record.is_live(now):
            continue
        if state.pieces.is_complete(uri, record.num_pieces):
            continue
        engine._accept_metadata(state, record, now)
        engine._download_from_internet(state, uri, now)
        proxied += 1
    if variant.distributes_queries and proxied < PROXY_DOWNLOADS:
        for query in state.foreign_queries(now):
            if proxied >= PROXY_DOWNLOADS:
                break
            for record in server.search(query.tokens, now, limit=1):
                if state.pieces.is_complete(record.uri, record.num_pieces):
                    continue
                engine._accept_metadata(state, record, now)
                engine._download_from_internet(state, record.uri, now)
                proxied += 1
    seeded = 0
    for record in server.top_popular(now, PUSH_LIMIT):
        if seeded >= POPULAR_FILE_DOWNLOADS:
            break
        if not state.pieces.is_complete(record.uri, record.num_pieces):
            engine._accept_metadata(state, record, now)
            engine._download_from_internet(state, record.uri, now)
            seeded += 1


#: Name tokens of the sync pool: shared leading tokens make queries
#: match several records.
_SYNC_NAMES = ("news island", "news city", "drama island", "news island live")
_SYNC_REGISTRY = PublisherRegistry(master_seed=5)
_SYNC_POOL = [
    make_metadata(
        _SYNC_REGISTRY,
        uri=f"dtn://fox/s{i}",
        name=f"{_SYNC_NAMES[i % len(_SYNC_NAMES)]} s01e{i:02d}",
        num_pieces=1 + i % 3,
        popularity=0.1 + 0.1 * i,
        ttl=(0.5 + 0.5 * (i % 5)) * DAY,
    )
    for i in range(8)
]
#: Popularity-refresh copies, as ``refresh_popularities`` makes them under
#: ``track_popularity``: equal fields but the popularity, distinct objects.
_SYNC_REFRESHED = [record.with_popularity(0.95 - 0.1 * i) for i, record in enumerate(_SYNC_POOL)]
#: Same-field copies: equal but distinct objects.
_SYNC_COPIES = [replace(record) for record in _SYNC_POOL]
#: Unsigned fakes a polluter stores directly: one under a pirate URI, one
#: under the real URI.
_SYNC_FAKES = [
    replace(record, uri=Uri(f"dtn://pirate/p{i:06d}") if i % 2 else record.uri, signature="")
    for i, record in enumerate(_SYNC_POOL)
]

_SYNC_OPS = st.one_of(
    st.tuples(st.just("store"), st.integers(0, 7)),
    st.tuples(st.just("copy"), st.integers(0, 7)),
    st.tuples(st.just("fake"), st.integers(0, 7)),
    st.tuples(st.just("whole"), st.integers(0, 7)),
    st.tuples(st.just("piece"), st.integers(0, 7), st.integers(0, 2)),
    st.tuples(st.just("query"), st.integers(0, 7), st.sampled_from(_SYNC_NAMES)),
    st.tuples(st.just("foreign"), st.integers(0, 7), st.sampled_from(_SYNC_NAMES)),
    st.tuples(st.just("request"), st.integers(0, 7)),
)


def _sync_world(config, nodes, refreshed, unserved):
    """An engine over fresh node states built from ``nodes`` (per node:
    settings and ops), with the pool published and the records in
    ``refreshed`` replaced on the server by refresh copies."""
    registry = _SYNC_REGISTRY
    server, files, metrics = MetadataServer(), FileServer(), MetricsCollector()
    for i, record in enumerate(_SYNC_POOL):
        server.publish(record)
        if i not in unserved:
            files.publish(FileDescriptor(
                uri=record.uri, title_tokens=tuple(record.name.split()),
                publisher=record.publisher, size_bytes=record.num_pieces * PIECE_SIZE,
                popularity=record.popularity, created_at=record.created_at, ttl=record.ttl,
            ))
    states = {}
    for n, (capacity, policy, selection, verify, ops) in enumerate(nodes):
        node = NodeId(n)
        state = NodeState(
            node, registry, internet_access=n < 2, metadata_capacity=capacity,
            metadata_policy=policy, verify_signatures=verify, selection_policy=selection,
        )
        states[node] = state
        for op in ops:
            kind, i = op[0], op[1]
            record = _SYNC_POOL[i]
            if kind == "store":
                state.accept_metadata(record, 0.0)
            elif kind == "copy":
                state.accept_metadata(_SYNC_COPIES[i], 0.0)
            elif kind == "fake":
                fake = _SYNC_FAKES[i]
                state.metadata.add(fake)
                state.receive_whole_file(fake.uri, fake.num_pieces)
            elif kind == "whole":
                state.receive_whole_file(record.uri, record.num_pieces)
            elif kind == "piece":
                index = op[2] % record.num_pieces
                state.accept_piece(
                    record.uri, index, piece_payload(record.uri, index),
                    record.checksums[index],
                )
            elif kind in ("query", "foreign"):
                query = make_query(n, record.uri, op[2].split(), 0.0, record.expires_at)
                if kind == "query":
                    state.add_own_query(query)
                    metrics.register_query(query, access_node=state.internet_access)
                else:
                    state.store_foreign_queries(NodeId(n + 1), [query])
            else:
                state.remember_peer_requests({record.uri: {NodeId(n + 1)}}, 0.0)
    for i in refreshed:
        server.publish(_SYNC_REFRESHED[i])
    return MobileBitTorrent(states, server, files, metrics, config)


def _sync_outcome(engine: MobileBitTorrent, now: float):
    out: List[object] = []
    for node, state in sorted(engine.states.items()):
        out.append((
            node,
            [id(record) for record in state.metadata.records()],
            state.stats.as_dict(),
            state.wanted_uris(now),
            sorted(state.rejected_uris),
            sorted((uri, state.pieces.bitmap_of(uri)) for uri in state.pieces.uris),
            state.metadata.evictions,
        ))
    out.append([
        (r.query, r.metadata_delivered_at, r.file_delivered_at)
        for r in engine._metrics.records
    ])
    out.append(engine.counters.as_dict())
    return out


_SYNC_NODE = st.tuples(
    st.sampled_from((None, 1, 2, 3, 5)),
    st.sampled_from(EVICTION_POLICIES),
    st.sampled_from(("all", "best")),
    st.booleans(),
    st.lists(_SYNC_OPS, max_size=14),
)


class TestSyncEquivalence:
    """``internet_sync`` equals a sync that sends every record through
    ``_accept_metadata``, on random node states."""

    @settings(max_examples=250, deadline=None)
    @given(
        variant=st.sampled_from(list(ProtocolVariant)),
        nodes=st.lists(_SYNC_NODE, min_size=3, max_size=3),
        refreshed=st.sets(st.integers(0, 7)),
        unserved=st.sets(st.integers(0, 7), max_size=2),
        instants=st.lists(st.sampled_from((0.0, 0.25 * DAY, 0.75 * DAY, 1.25 * DAY)),
                          min_size=1, max_size=3),
    )
    def test_matches_the_accept_chain(self, variant, nodes, refreshed, unserved, instants):
        config = ProtocolConfig(variant=variant)
        fast = _sync_world(config, nodes, refreshed, unserved)
        reference = _sync_world(config, nodes, refreshed, unserved)
        for now in sorted(instants):
            for node in sorted(fast.states):
                fast.internet_sync(node, now)
                _reference_sync(reference, node, now)
            assert _sync_outcome(fast, now) == _sync_outcome(reference, now)
