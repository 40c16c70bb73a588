"""Unit tests for per-node protocol state."""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.files import piece_checksums, piece_payload
from repro.catalog.metadata import PublisherRegistry, verify_metadata
from repro.core.node import EVICTION_POLICIES, MetadataStore, NodeState
from repro.types import DAY, NodeId, Uri

from conftest import make_metadata, make_node, make_query


class TestMetadataStore:
    def test_unbounded_by_default(self, registry):
        store = MetadataStore()
        for i in range(50):
            store.add(make_metadata(registry, uri=f"dtn://fox/{i}"))
        assert len(store) == 50

    def test_add_reports_new_vs_duplicate(self, registry):
        store = MetadataStore()
        record = make_metadata(registry)
        assert store.add(record) is True
        assert store.add(record) is False

    def test_capacity_evicts_least_popular(self, registry):
        store = MetadataStore(capacity=2)
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        mid = make_metadata(registry, uri="dtn://fox/mid", popularity=0.5)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.9)
        store.add(low)
        store.add(mid)
        store.add(high)
        assert len(store) == 2
        assert low.uri not in store
        assert mid.uri in store and high.uri in store

    def test_protected_records_survive_eviction(self, registry):
        store = MetadataStore(capacity=2)
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        mid = make_metadata(registry, uri="dtn://fox/mid", popularity=0.5)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.9)
        store.add(low)
        store.add(mid)
        store.add(high, protected=frozenset({low.uri, high.uri}))
        assert low.uri in store  # protected despite lowest popularity
        assert mid.uri not in store

    def test_may_evict_on_insert(self, registry):
        store = MetadataStore(capacity=1)
        record = make_metadata(registry)
        assert not store.full
        store.add(record)
        assert store.full
        assert store.add(record) is False  # refresh, not insert
        assert record.uri in store
        other = make_metadata(registry, uri="dtn://fox/other")
        assert store.add(other)
        assert record.uri not in store and other.uri in store

    def test_drop_expired(self, registry):
        store = MetadataStore()
        record = make_metadata(registry, ttl=100.0)
        store.add(record)
        assert store.drop_expired(now=200.0) == [record.uri]
        assert len(store) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MetadataStore(capacity=0)


class TestNodeQueries:
    def test_add_own_query_checks_owner(self, registry):
        node = make_node(registry, node=1)
        with pytest.raises(ValueError):
            node.add_own_query(make_query(2, "dtn://fox/x", ["a"]))

    def test_own_queries_filters_expired(self, registry):
        node = make_node(registry)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a"], 0.0, 100.0))
        node.add_own_query(make_query(0, "dtn://fox/b", ["b"], 0.0, 1000.0))
        assert len(node.own_queries(50.0)) == 2
        assert [q.target_uri for q in node.own_queries(500.0)] == ["dtn://fox/b"]

    def test_foreign_queries_deduplicated(self, registry):
        node = make_node(registry, node=0)
        query = make_query(1, "dtn://fox/x", ["a"])
        node.store_foreign_queries(NodeId(1), [query])
        node.store_foreign_queries(NodeId(1), [query])
        assert len(node.foreign_queries(0.0)) == 1

    def test_query_token_views(self, registry):
        node = make_node(registry, node=0)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a", "x"]))
        node.store_foreign_queries(NodeId(1), [make_query(1, "dtn://fox/b", ["b"])])
        assert node.own_query_tokens(0.0) == (frozenset({"a", "x"}),)
        assert node.foreign_query_tokens(0.0) == (frozenset({"b"}),)

    def test_live_views_follow_starts_and_expiries(self, registry):
        node = make_node(registry, node=0)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a"], 0.0, 100.0))
        node.add_own_query(make_query(0, "dtn://fox/b", ["b"], 50.0, 200.0))
        node.store_foreign_queries(
            NodeId(1), [make_query(1, "dtn://fox/c", ["c"], 0.0, 150.0)]
        )
        seen = []
        for now in (0.0, 10.0, 49.0, 50.0, 99.0, 100.0, 149.0, 150.0, 199.0, 200.0):
            own = node.own_query_tokens(now)
            foreign = node.foreign_query_tokens(now)
            assert [q.tokens for q in node.own_queries(now)] == list(own)
            assert [q.tokens for q in node.foreign_queries(now)] == list(foreign)
            seen.append((now, sorted("".join(t) for t in own), ["".join(t) for t in foreign]))
        assert seen == [
            (0.0, ["a"], ["c"]), (10.0, ["a"], ["c"]), (49.0, ["a"], ["c"]),
            (50.0, ["a", "b"], ["c"]), (99.0, ["a", "b"], ["c"]),
            (100.0, ["b"], ["c"]), (149.0, ["b"], ["c"]), (150.0, ["b"], []),
            (199.0, ["b"], []), (200.0, [], []),
        ]
        # One computation per window: five windows, every other lookup hits.
        assert node.query_cache_misses == 5


class TestNodeReceiving:
    def test_accept_metadata_verifies_signature(self, registry):
        node = make_node(registry)
        good = make_metadata(registry)
        bad = make_metadata(registry, uri="dtn://fox/bad", signed=False)
        assert node.accept_metadata(good, 0.0) is True
        assert node.accept_metadata(bad, 0.0) is False
        assert node.stats.metadata_rejected_auth == 1

    def test_accept_metadata_can_skip_verification(self, registry):
        node = make_node(registry)
        node.verify_signatures = False
        unsigned = make_metadata(registry, signed=False)
        assert node.accept_metadata(unsigned, 0.0) is True

    def test_accept_metadata_rejects_expired(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, ttl=10.0)
        assert node.accept_metadata(record, now=20.0) is False

    def test_duplicate_metadata_counted(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        node.accept_metadata(record, 0.0)
        assert node.stats.metadata_received == 1
        assert node.stats.metadata_duplicates == 1

    def test_stored_unverified_record_still_rejected(self, registry):
        # A pirate stores its own fake without verification; receiving
        # the very same object again must still fail the signature check.
        node = make_node(registry)
        fake = make_metadata(registry, uri="dtn://fox/fake", signed=False)
        node.metadata.add(fake)
        assert node.accept_metadata(fake, 0.0) is False
        assert node.stats.metadata_rejected_auth == 1
        assert fake.uri in node.rejected_uris
        assert node.stats.metadata_duplicates == 0

    def test_verified_re_receipt_leaves_store_untouched(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        assert node.accept_metadata(record, 0.0) is True
        mutations = node.metadata.mutations
        assert node.accept_metadata(record, 1.0) is False
        assert node.stats.metadata_duplicates == 1
        assert node.metadata.mutations == mutations
        assert node.metadata.peek(record.uri) is record

    def test_distinct_copy_refreshes_stored_record(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, popularity=0.2)
        node.accept_metadata(record, 0.0)
        refreshed = record.with_popularity(0.7)
        assert node.accept_metadata(refreshed, 1.0) is False
        assert node.stats.metadata_duplicates == 1
        assert node.metadata.peek(record.uri) is refreshed

    def test_accept_piece_verifies(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        payload = piece_payload(record.uri, 0)
        assert node.accept_piece(record.uri, 0, payload, record.checksums[0]) is True
        assert node.accept_piece(record.uri, 0, payload, record.checksums[0]) is False
        assert node.stats.pieces_received == 1
        assert node.stats.piece_duplicates == 1


class TestWantedUris:
    def test_wants_incomplete_matching_file(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        node.add_own_query(make_query(0, record.uri, ["news"]))
        assert node.wanted_uris(0.0) == {record.uri}

    def test_complete_file_not_wanted(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        node.add_own_query(make_query(0, record.uri, ["news"]))
        node.receive_whole_file(record.uri, record.num_pieces)
        assert node.wanted_uris(0.0) == frozenset()

    def test_no_metadata_nothing_wanted(self, registry):
        node = make_node(registry)
        node.add_own_query(make_query(0, "dtn://fox/x", ["news"]))
        assert node.wanted_uris(0.0) == frozenset()

    def test_cache_invalidated_by_mutation(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.add_own_query(make_query(0, record.uri, ["news"]))
        assert node.wanted_uris(0.0) == frozenset()
        node.accept_metadata(record, 0.0)  # mutation must invalidate cache
        assert node.wanted_uris(0.0) == {record.uri}

    def test_set_survives_time_and_hot_events(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, num_pieces=2, ttl=10 * DAY)
        other = make_metadata(registry, uri="dtn://fox/other", ttl=10 * DAY)
        node.add_own_query(make_query(0, record.uri, ["news"], 0.0, 5 * DAY))
        node.accept_metadata(record, 0.0)
        assert node.wanted_uris(0.0) == {record.uri}
        assert node.wanted_uris(DAY) == {record.uri}
        node.accept_metadata(other, DAY)  # a new match joins the set
        assert node.wanted_uris(DAY) == {record.uri, other.uri}
        node.accept_piece(record.uri, 0, piece_payload(record.uri, 0), record.checksums[0])
        assert node.wanted_uris(2 * DAY) == {record.uri, other.uri}
        node.accept_piece(record.uri, 1, piece_payload(record.uri, 1), record.checksums[1])
        assert node.wanted_uris(2 * DAY) == {other.uri}  # a completed file leaves it
        assert (node.wanted_cache_misses, node.wanted_cache_hits) == (1, 4)
        assert node.wanted_uris(5 * DAY) == frozenset()  # the query expired
        assert node.wanted_cache_misses == 2

    def test_expired_query_stops_wanting(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, ttl=5 * DAY)
        node.accept_metadata(record, 0.0)
        node.add_own_query(make_query(0, record.uri, ["news"], 0.0, DAY))
        assert node.wanted_uris(0.5 * DAY) == {record.uri}
        assert node.wanted_uris(2 * DAY) == frozenset()


#: The record pool of the wanted-set property test: (URI, name, pieces,
#: created_at, ttl). Names share tokens so queries match several records.
POOL = (
    ("dtn://fox/a", "news island", 1, 0.0, 30.0),
    ("dtn://fox/b", "news desert", 2, 0.0, 12.0),
    ("dtn://fox/c", "island desert finale", 3, 5.0, 40.0),
    ("dtn://abc/d", "news finale", 1, 10.0, 25.0),
    ("dtn://abc/e", "island", 2, 0.0, 60.0),
    ("dtn://abc/f", "desert finale news", 1, 20.0, 15.0),
)
QUERY_TOKENS = (("news",), ("island",), ("desert", "finale"), ("finale",))

_record_op = st.tuples(
    st.just("record"),
    st.integers(0, len(POOL) - 1),
    st.sampled_from((0.1, 0.5, 0.9)),
    st.booleans(),  # signed
    st.sampled_from((0.0, 0.0, 0.0, 7.0, -5.0)),  # ttl change: a re-issue
)
_piece_op = st.tuples(st.just("piece"), st.integers(0, len(POOL) - 1), st.integers(0, 2))
_whole_op = st.tuples(st.just("whole"), st.integers(0, len(POOL) - 1))
_seed_op = st.tuples(st.just("seed"), st.integers(0, len(POOL) - 1))
_query_op = st.tuples(
    st.just("query"),
    st.integers(0, len(QUERY_TOKENS) - 1),
    st.sampled_from((-3.0, 0.0, 4.0, 15.0)),  # start offset; > 0 is pending
    st.sampled_from((6.0, 20.0, 50.0)),  # lifetime
)
_advance_op = st.tuples(st.just("advance"), st.sampled_from((0.5, 3.0, 7.0, 13.0)))
#: Operation kinds, repeated by weight: the hot events (records, pieces,
#: time) come often, the invalidating ones (expire, wipe) rarely.
_KINDS = {
    "record": (_record_op, 5), "piece": (_piece_op, 3), "advance": (_advance_op, 3),
    "query": (_query_op, 2), "whole": (_whole_op, 1), "seed": (_seed_op, 1),
    "expire": (st.just(("expire",)), 1), "wipe": (st.just(("wipe",)), 1),
}
_OPS = st.sampled_from(
    [kind for kind, (__, weight) in _KINDS.items() for __ in range(weight)]
).flatmap(lambda kind: _KINDS[kind][0])


def _pool_record(registry, i: int, popularity=0.5, signed=True, ttl_change=0.0):
    uri, name, pieces, created_at, ttl = POOL[i]
    return make_metadata(
        registry, uri=uri, name=name, publisher=uri.split("/")[2],
        num_pieces=pieces, popularity=popularity, created_at=created_at,
        ttl=ttl + ttl_change, signed=signed,
    )


def _reference_wanted(node: NodeState, queries, now: float) -> frozenset:
    """Brute force: scan the store for each live query of ``queries``."""
    wanted = set()
    for query in (q for q in queries if q.is_live(now)):
        matches = [
            md for md in node.metadata.records()
            if md.is_live(now) and query.tokens <= md.token_set
        ]
        if matches and node.selection_policy == "best":
            matches = [min(matches, key=lambda md: (
                not verify_metadata(md, node.registry), -md.popularity, md.uri
            ))]
        wanted.update(
            md.uri for md in matches if not node.pieces.is_complete(md.uri, md.num_pieces)
        )
    return frozenset(wanted)


class TestWantedSetProperty:
    """The incrementally kept wanted set equals a brute-force rescan."""

    @settings(max_examples=300, deadline=None)
    @given(
        selection=st.sampled_from(("all", "best")),
        capacity=st.sampled_from((None, 1, 2, 3)),
        policy=st.sampled_from(EVICTION_POLICIES),
        verify=st.booleans(),
        ops=st.lists(_OPS, min_size=10, max_size=60),
    )
    # Expiry while a query is still pending: the query must survive it.
    @example(
        selection="all", capacity=None, policy="popularity", verify=True,
        ops=[
            ("record", 0, 0.5, True, 0.0), ("query", 0, 4.0, 20.0),
            ("expire",), ("advance", 7.0),
        ],
    )
    def test_matches_reference_after_every_step(self, selection, capacity, policy, verify, ops):
        registry = PublisherRegistry(master_seed=3)
        node = NodeState(
            NodeId(0), registry, metadata_capacity=capacity,
            metadata_policy=policy, selection_policy=selection,
            verify_signatures=verify,
        )
        now = 0.0
        # The own queries the node must still hold, kept apart from the
        # node so that expiry is checked too (a pending query survives).
        queries = []
        for op in ops:
            kind = op[0]
            if kind == "record":
                __, i, popularity, signed, ttl_change = op
                node.accept_metadata(
                    _pool_record(registry, i, popularity, signed, ttl_change), now
                )
            elif kind == "piece":
                __, i, index = op
                uri, __, pieces, __, __ = POOL[i]
                index %= pieces
                node.accept_piece(
                    Uri(uri), index, piece_payload(Uri(uri), index),
                    piece_checksums(Uri(uri), pieces)[index],
                )
            elif kind == "whole":
                node.receive_whole_file(Uri(POOL[op[1]][0]), POOL[op[1]][2])
            elif kind == "seed":
                # The pirate path: a store insert that bypasses acceptance.
                record = _pool_record(registry, op[1], signed=False)
                node.metadata.add(record)
                node.receive_whole_file(record.uri, record.num_pieces)
            elif kind == "query":
                __, t, start, lifetime = op
                query = make_query(
                    0, POOL[t][0], QUERY_TOKENS[t], now + start, now + start + lifetime
                )
                node.add_own_query(query)
                queries.append(query)
            elif kind == "advance":
                now += op[1]
            elif kind == "expire":
                node.expire(now)
                queries = [q for q in queries if now < q.expires_at]
            else:
                node.wipe()
            assert node.wanted_uris(now) == _reference_wanted(node, queries, now), op
            # Time alone must move the set too: probe later instants on
            # a copy, so the sequence itself continues undisturbed.
            probe = copy.deepcopy(node)
            for later in (now + 1.0, now + 6.0, now + 13.0, now + 31.0):
                assert probe.wanted_uris(later) == _reference_wanted(probe, queries, later), (
                    op, later,
                )


_live_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("own"), st.integers(0, len(QUERY_TOKENS) - 1),
            st.sampled_from((-3.0, 0.0, 4.0, 15.0)), st.sampled_from((6.0, 20.0)),
        ),
        st.tuples(
            st.just("foreign"), st.integers(1, 3), st.integers(0, len(QUERY_TOKENS) - 1),
            st.sampled_from((-3.0, 0.0, 4.0)), st.sampled_from((6.0, 20.0)),
        ),
        st.tuples(st.just("advance"), st.sampled_from((0.5, 3.0, 7.0))),
        st.just(("expire",)),
        st.just(("wipe",)),
    ),
    min_size=5,
    max_size=40,
)


class TestLiveQueryProperty:
    """The live-query memo equals a scan of every query ever added."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_live_ops)
    def test_matches_scan_after_every_step(self, ops):
        node = NodeState(NodeId(0), PublisherRegistry(master_seed=3))
        own, foreign = [], {}  # the queries the node must still hold
        now = 0.0
        for op in ops:
            kind = op[0]
            if kind == "own":
                __, t, start, lifetime = op
                query = make_query(0, POOL[t][0], QUERY_TOKENS[t], now + start, now + start + lifetime)
                node.add_own_query(query)
                own.append(query)
            elif kind == "foreign":
                __, peer, t, start, lifetime = op
                query = make_query(
                    peer, POOL[t][0], QUERY_TOKENS[t], now + start, now + start + lifetime
                )
                node.store_foreign_queries(NodeId(peer), [query])
                stored = foreign.setdefault(peer, [])
                if all((q.target_uri, q.tokens) != (query.target_uri, query.tokens) for q in stored):
                    stored.append(query)
            elif kind == "advance":
                now += op[1]
            elif kind == "expire":
                node.expire(now)
                own = [q for q in own if now < q.expires_at]
                foreign = {
                    peer: live
                    for peer, queries in foreign.items()
                    if (live := [q for q in queries if now < q.expires_at])
                }
            else:
                node.wipe()
                foreign = {}
            # Probe copies first, so that the node's own memo moves only
            # below: at every step but a time advance.
            for at in (now - 4.0, now, now + 2.0, now + 9.0):
                want_own = [q for q in own if q.is_live(at)]
                want_foreign = [q for qs in foreign.values() for q in qs if q.is_live(at)]
                probe = copy.deepcopy(node)
                assert probe.own_queries(at) == want_own, (op, at)
                assert probe.own_query_tokens(at) == tuple(q.tokens for q in want_own)
                assert probe.foreign_queries(at) == want_foreign, (op, at)
                assert probe.foreign_query_tokens(at) == tuple(q.tokens for q in want_foreign)
            if kind != "advance":
                node.own_queries(now)


class TestPeerRequests:
    def test_remember_and_rank_by_demand(self, registry):
        node = make_node(registry)
        a, b = Uri("dtn://fox/a"), Uri("dtn://fox/b")
        node.remember_peer_requests({a: {NodeId(1)}}, now=0.0)
        node.remember_peer_requests({a: {NodeId(2)}, b: {NodeId(2)}}, now=1.0)
        top = node.top_peer_requests(now=2.0, window=100.0)
        assert top[0] == a  # two distinct requesters beat one

    def test_window_prunes_stale_requests(self, registry):
        node = make_node(registry)
        a = Uri("dtn://fox/a")
        node.remember_peer_requests({a: {NodeId(1)}}, now=0.0)
        assert node.top_peer_requests(now=50.0, window=100.0) == [a]
        assert node.top_peer_requests(now=500.0, window=100.0) == []

    def test_same_peer_counted_once(self, registry):
        node = make_node(registry)
        a, b = Uri("dtn://fox/a"), Uri("dtn://fox/b")
        node.remember_peer_requests({a: {NodeId(1)}}, now=0.0)
        node.remember_peer_requests({a: {NodeId(1)}}, now=1.0)
        node.remember_peer_requests({b: {NodeId(2)}}, now=2.0)
        node.remember_peer_requests({b: {NodeId(3)}}, now=3.0)
        top = node.top_peer_requests(now=4.0, window=100.0)
        assert top[0] == b

    def test_own_advertisement_skipped(self, registry):
        node = make_node(registry, node=0)
        a, b = Uri("dtn://fox/a"), Uri("dtn://fox/b")
        node.remember_peer_requests({a: {NodeId(0)}, b: {NodeId(0), NodeId(1)}}, now=0.0)
        assert node.top_peer_requests(now=1.0, window=100.0) == [b]
        node.remember_peer_requests({b: {NodeId(2)}}, now=2.0)
        node.remember_peer_requests({a: {NodeId(1)}}, now=3.0)
        # b: two requesters (node 0 itself never counts); a: one.
        assert node.top_peer_requests(now=4.0, window=100.0) == [b, a]


class TestHousekeeping:
    def test_expire_drops_everything_stale(self, registry):
        node = make_node(registry)
        record = make_metadata(registry, ttl=100.0)
        node.accept_metadata(record, 0.0)
        node.receive_whole_file(record.uri, 1)
        node.add_own_query(make_query(0, record.uri, ["news"], 0.0, 100.0))
        node.store_foreign_queries(
            NodeId(1), [make_query(1, record.uri, ["news"], 0.0, 100.0)]
        )
        node.expire(now=200.0)
        assert len(node.metadata) == 0
        assert node.pieces.total_pieces() == 0
        assert node.own_queries(200.0) == []
        assert node.foreign_queries(200.0) == []

    def test_expire_keeps_queries_that_start_later(self, registry):
        node = make_node(registry, node=0)
        node.add_own_query(make_query(0, "dtn://fox/a", ["a"], 100.0, 300.0))
        node.store_foreign_queries(
            NodeId(1), [make_query(1, "dtn://fox/b", ["b"], 100.0, 300.0)]
        )
        node.expire(now=50.0)
        assert node.own_queries(50.0) == []
        assert [q.target_uri for q in node.own_queries(200.0)] == ["dtn://fox/a"]
        assert [q.target_uri for q in node.foreign_queries(200.0)] == ["dtn://fox/b"]

    def test_heard_recently(self, registry):
        node = make_node(registry)
        node.neighbor_last_heard[NodeId(1)] = 100.0
        node.neighbor_last_heard[NodeId(2)] = 10.0
        assert node.heard_recently(now=104.0, window=5.0) == {NodeId(1)}

    def test_repr_mentions_access(self, registry):
        assert "inet" in repr(make_node(registry, internet_access=True))
        assert "dtn" in repr(make_node(registry, internet_access=False))

    def test_stats_as_dict(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        stats = node.stats.as_dict()
        assert stats["metadata_received"] == 1
