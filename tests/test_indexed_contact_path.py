"""Equivalence and determinism tests for the indexed contact hot path.

The candidate builders in :mod:`repro.core.discovery` and
:mod:`repro.core.download` run on incremental indexes (inverted token
index, piece bitmaps, clique views). Each module keeps its naive
``*_reference`` implementation as the specification; the property
suite here drives both against randomized cliques and requires
identical candidates and identical ranked selection order.

Also covered: the canonical-record fix (the record chosen for a URI
held in different-popularity copies must not depend on member
iteration order) and the piece-bitmap primitives.
"""

from __future__ import annotations

import random
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.files import PieceStore, bit_indices, pack_bitmap
from repro.core import discovery, download
from repro.core.cliqueview import CliqueView
from repro.core.node import MetadataStore, NodeState
from repro.types import NodeId, Uri

from conftest import make_metadata, make_node, make_query

VOCAB = ("news", "island", "desert", "finale", "sports", "weather")


def _tokens_of(rng: random.Random) -> str:
    return " ".join(rng.sample(VOCAB, rng.randint(2, 4)))


def _build_clique(registry, seed: int) -> Dict[NodeId, NodeState]:
    """A randomized clique: records, queries, pieces, bounded stores."""
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 5)
    n_files = rng.randint(3, 8)
    files = []
    for i in range(n_files):
        uri = f"dtn://fox/f{i:06d}"
        files.append(
            make_metadata(
                registry,
                uri=uri,
                name=_tokens_of(rng),
                num_pieces=rng.randint(1, 4),
                popularity=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)),
                ttl=rng.choice((10.0, 1000.0)),  # some expire before t=50
            )
        )
    states: Dict[NodeId, NodeState] = {}
    for i in range(n_nodes):
        state = make_node(
            registry,
            node=i,
            metadata_capacity=rng.choice((None, None, 3)),
        )
        for record in rng.sample(files, rng.randint(0, n_files)):
            state.accept_metadata(record, 0.0)
        for _ in range(rng.randint(0, 2)):
            target = rng.choice(files)
            state.add_own_query(
                make_query(i, target.uri, rng.sample(sorted(target.token_set), 1))
            )
        if rng.random() < 0.5:
            peer = NodeId(100 + i)
            target = rng.choice(files)
            state.store_foreign_queries(
                peer, [make_query(100 + i, target.uri, rng.sample(sorted(target.token_set), 1))]
            )
        for record in rng.sample(files, rng.randint(0, 2)):
            for index in range(record.num_pieces):
                if rng.random() < 0.6:
                    state.pieces.add_unverified(record.uri, index)
        states[NodeId(i)] = state
    return states


def _assert_same_ranking(ranks, indexed, reference, states, now) -> None:
    """Both candidate lists sort identically under ``ranks``' keys.

    Checks the coordinator's global order and, per member, the order in
    which a cyclic-mode sender would pop the candidates it holds.
    """
    coop = ranks.cooperative_rank_key
    assert sorted(indexed, key=coop) == sorted(reference, key=coop)
    for sender in states.values():
        held_indexed = [c for c in indexed if sender.node in c.holders]
        held_reference = [c for c in reference if sender.node in c.holders]
        assert sorted(held_indexed, key=coop) == sorted(held_reference, key=coop)

        def tft(c, sender=sender):
            return ranks.tit_for_tat_rank_key(c, sender, now)

        assert sorted(held_indexed, key=tft) == sorted(held_reference, key=tft)


class TestBuilderEquivalence:
    """Indexed builders must equal their naive reference on any clique."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), include_foreign=st.booleans())
    def test_metadata_candidates_match_reference(self, seed, include_foreign):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed)
        now = 5.0 if seed % 2 else 50.0  # after some records expired
        indexed = discovery.build_metadata_candidates(states, now, include_foreign)
        reference = discovery.build_metadata_candidates_reference(
            states, now, include_foreign
        )
        assert set(indexed) == set(reference)
        # Ranked order must be identical too, not just the sets.
        _assert_same_ranking(discovery, indexed, reference, states, now)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_piece_candidates_match_reference(self, seed):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed)
        now = 5.0 if seed % 2 else 50.0
        indexed = download.build_piece_candidates(states, now)
        reference = download.build_piece_candidates_reference(states, now)
        assert set(indexed) == set(reference)
        _assert_same_ranking(download, indexed, reference, states, now)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_shared_view_equals_fresh_builds(self, seed):
        """One CliqueView reused across both phases matches fresh builds."""
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed)
        view = CliqueView(states, 5.0)
        assert set(
            discovery.build_metadata_candidates(states, 5.0, True, view=view)
        ) == set(discovery.build_metadata_candidates(states, 5.0, True))
        assert set(download.build_piece_candidates(states, 5.0, view=view)) == set(
            download.build_piece_candidates(states, 5.0)
        )


class TestCanonicalRecord:
    """Same-URI copies with different popularity: order must not matter."""

    def _states_with_copies(self, registry, order: List[int]) -> Dict[NodeId, NodeState]:
        low = make_metadata(registry, uri="dtn://fox/f1", popularity=0.2)
        high = make_metadata(registry, uri="dtn://fox/f1", popularity=0.8)
        by_node = {0: low, 1: high, 2: None}
        states: Dict[NodeId, NodeState] = {}
        for i in order:
            state = make_node(registry, node=i)
            if by_node[i] is not None:
                state.accept_metadata(by_node[i], 0.0)
            states[NodeId(i)] = state
        return states

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]])
    def test_metadata_candidate_uses_max_popularity_copy(self, registry, order):
        states = self._states_with_copies(registry, order)
        cands = discovery.build_metadata_candidates(states, 0.0, False)
        assert len(cands) == 1
        assert cands[0].metadata.popularity == 0.8

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]])
    def test_candidates_identical_across_insertion_orders(self, registry, order):
        baseline = self._states_with_copies(registry, [0, 1, 2])
        permuted = self._states_with_copies(registry, order)
        for state in (baseline, permuted):
            state[NodeId(0)].pieces.add_unverified(Uri("dtn://fox/f1"), 0)
        assert set(discovery.build_metadata_candidates(baseline, 0.0, False)) == set(
            discovery.build_metadata_candidates(permuted, 0.0, False)
        )
        assert set(download.build_piece_candidates(baseline, 0.0)) == set(
            download.build_piece_candidates(permuted, 0.0)
        )

    def test_equal_popularity_tie_breaks_to_lowest_member(self, registry):
        a = make_metadata(registry, uri="dtn://fox/f1", popularity=0.5, ttl=100.0)
        b = make_metadata(registry, uri="dtn://fox/f1", popularity=0.5, ttl=200.0)
        forward: Dict[NodeId, NodeState] = {}
        backward: Dict[NodeId, NodeState] = {}
        for states, pairs in ((forward, [(0, a), (1, b)]), (backward, [(1, b), (0, a)])):
            for node, record in pairs:
                state = make_node(registry, node=node)
                state.accept_metadata(record, 0.0)
                states[NodeId(node)] = state
            states[NodeId(5)] = make_node(registry, node=5)
        chosen_f = discovery.build_metadata_candidates(forward, 0.0, False)[0].metadata
        chosen_b = discovery.build_metadata_candidates(backward, 0.0, False)[0].metadata
        assert chosen_f == chosen_b == a  # lowest member id wins the tie


class TestPieceBitmaps:
    @settings(max_examples=60, deadline=None)
    @given(indices=st.sets(st.integers(0, 128)))
    def test_pack_roundtrip(self, indices):
        assert set(bit_indices(pack_bitmap(indices))) == indices

    def test_store_tracks_bitmap_forms(self):
        store = PieceStore()
        uri = Uri("dtn://fox/f1")
        assert store.bitmap_of(uri) == 0
        store.add_unverified(uri, 0)
        store.add_unverified(uri, 2)
        assert store.bitmap_of(uri) == 0b101
        assert store.pieces_of(uri) == {0, 2}
        store.drop(uri)
        assert uri not in store
        assert store.bitmap_of(uri) == 0

    def test_whole_file_completes(self):
        store = PieceStore()
        uri = Uri("dtn://fox/f1")
        store.add_whole_file(uri, 4)
        assert store.bitmap_of(uri) == 0b1111
        assert store.is_complete(uri, 4)
        assert store.total_pieces() == 4


class _IterInOrder(frozenset):
    """A frozenset that iterates its elements sorted, or reverse-sorted."""

    reverse = False

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self), reverse=self.reverse))


class TestWantedOrderDeterminism:
    def test_internet_sync_ignores_wanted_iteration_order(self, registry):
        """How the wanted set iterates must not reach results.

        Each Internet download touches LRU recency, so ``internet_sync``
        sorts the wanted set first; two opposite iteration orders must
        leave the same store, downloaded in URI order.
        """
        from test_mbt_engine import Harness

        wanted_uris = NodeState.wanted_uris
        records = [
            make_metadata(registry, uri=f"dtn://fox/f{i}", name="news island")
            for i in (3, 0, 5, 1, 4, 2)
        ]
        store_orders = []
        for reverse in (False, True):
            h = Harness(registry, access=[0])
            state = h.states[NodeId(0)]
            state.metadata = MetadataStore(policy="lru")
            for record in records:
                h.publish(record)
                state.accept_metadata(record, 0.0)
            state.add_own_query(make_query(0, "dtn://fox/f0", ["island"]))

            def ordered(self, now, reverse=reverse):
                wanted = _IterInOrder(wanted_uris(self, now))
                wanted.reverse = reverse
                return wanted

            with mock.patch.object(NodeState, "wanted_uris", ordered):
                h.engine.internet_sync(NodeId(0), now=0.0)
            assert all(state.pieces.is_complete(r.uri, 1) for r in records)
            store_orders.append([record.uri for record in state.metadata.records()])
        assert store_orders[0] == store_orders[1]
        assert store_orders[0] == sorted(r.uri for r in records)
