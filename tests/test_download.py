"""Unit tests for the piece selection policies (§V)."""

from __future__ import annotations

from typing import Dict

import pytest

from repro.catalog.files import piece_payload
from repro.core import download
from repro.core.credits import ReputationCreditLedger
from repro.core.node import NodeState
from repro.types import DAY, NodeId

from conftest import make_metadata, make_node, make_query


@pytest.fixture
def clique(registry) -> Dict[NodeId, NodeState]:
    return {NodeId(i): make_node(registry, node=i) for i in range(3)}


def give_pieces(state: NodeState, record, indices) -> None:
    """Store metadata + verified pieces on a node."""
    state.accept_metadata(record, 0.0)
    for index in indices:
        payload = piece_payload(record.uri, index)
        state.accept_piece(record.uri, index, payload, record.checksums[index])


class TestPieceCandidates:
    def test_candidate_per_missing_piece(self, registry, clique):
        record = make_metadata(registry, num_pieces=2)
        give_pieces(clique[NodeId(0)], record, [0, 1])
        cands = download.build_piece_candidates(clique, 0.0)
        assert {(c.uri, c.index) for c in cands} == {(record.uri, 0), (record.uri, 1)}
        for cand in cands:
            assert cand.holders == {NodeId(0)}
            assert cand.missing == {NodeId(1), NodeId(2)}

    def test_sender_needs_metadata_too(self, registry, clique):
        record = make_metadata(registry)
        # Node 0 has the piece but no metadata anywhere: unservable.
        clique[NodeId(0)].pieces.add_unverified(record.uri, 0)
        assert download.build_piece_candidates(clique, 0.0) == []

    def test_requesters_from_wanted_uris(self, registry, clique):
        record = make_metadata(registry, name="news island s01e01")
        give_pieces(clique[NodeId(0)], record, [0])
        # Node 1 has the metadata and a matching query: it wants the file.
        clique[NodeId(1)].accept_metadata(record, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, record.uri, ["island"]))
        cand = download.build_piece_candidates(clique, 0.0)[0]
        assert cand.requesters == {NodeId(1)}
        # Node 2 lacks the metadata: missing but not requesting.
        assert NodeId(2) in cand.missing

    def test_universally_held_piece_not_candidate(self, registry, clique):
        record = make_metadata(registry)
        for state in clique.values():
            give_pieces(state, record, [0])
        assert download.build_piece_candidates(clique, 0.0) == []

    def test_expired_metadata_not_served(self, registry, clique):
        record = make_metadata(registry, ttl=10.0)
        give_pieces(clique[NodeId(0)], record, [0])
        assert download.build_piece_candidates(clique, 20.0) == []


class TestCooperativeRanking:
    def test_requested_pieces_first(self, registry, clique):
        wanted = make_metadata(registry, uri="dtn://fox/want",
                               name="news island s01e01", popularity=0.1)
        popular = make_metadata(registry, uri="dtn://fox/pop",
                                name="drama desert s01e02", popularity=0.9)
        give_pieces(clique[NodeId(0)], wanted, [0])
        give_pieces(clique[NodeId(0)], popular, [0])
        clique[NodeId(1)].accept_metadata(wanted, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, wanted.uri, ["island"]))
        ranked = sorted(
            download.build_piece_candidates(clique, 0.0),
            key=download.cooperative_rank_key,
        )
        assert ranked[0].uri == "dtn://fox/want"

    def test_more_requesters_first(self, registry, clique):
        one = make_metadata(registry, uri="dtn://fox/one", name="news island s01e01")
        two = make_metadata(registry, uri="dtn://fox/two", name="drama desert s01e02")
        give_pieces(clique[NodeId(0)], one, [0])
        give_pieces(clique[NodeId(0)], two, [0])
        for node in (1, 2):
            clique[NodeId(node)].accept_metadata(two, 0.0)
            clique[NodeId(node)].add_own_query(make_query(node, two.uri, ["desert"]))
        clique[NodeId(1)].accept_metadata(one, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, one.uri, ["island"]))
        ranked = sorted(
            download.build_piece_candidates(clique, 0.0),
            key=download.cooperative_rank_key,
        )
        assert ranked[0].uri == "dtn://fox/two"

    def test_phase_two_by_popularity(self, registry, clique):
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.8)
        give_pieces(clique[NodeId(0)], low, [0])
        give_pieces(clique[NodeId(0)], high, [0])
        ranked = sorted(
            download.build_piece_candidates(clique, 0.0),
            key=download.cooperative_rank_key,
        )
        assert ranked[0].uri == "dtn://fox/high"

    def test_piece_index_is_final_tiebreak(self, registry, clique):
        record = make_metadata(registry, num_pieces=3)
        give_pieces(clique[NodeId(0)], record, [0, 1, 2])
        ranked = sorted(
            download.build_piece_candidates(clique, 0.0),
            key=download.cooperative_rank_key,
        )
        assert [c.index for c in ranked] == [0, 1, 2]


class TestTitForTatRanking:
    def test_credit_weight_dominates(self, registry, clique):
        rich = make_metadata(registry, uri="dtn://fox/rich",
                             name="news island s01e01", popularity=0.1)
        poor = make_metadata(registry, uri="dtn://fox/poor",
                             name="drama desert s01e02", popularity=0.9)
        sender = clique[NodeId(0)]
        give_pieces(sender, rich, [0])
        give_pieces(sender, poor, [0])
        for node, record in ((1, rich), (2, poor)):
            clique[NodeId(node)].accept_metadata(record, 0.0)
            clique[NodeId(node)].add_own_query(
                make_query(node, record.uri, list(record.token_set)[:1])
            )
        sender.credits.reward_requested(NodeId(1))
        cands = download.build_piece_candidates(clique, 0.0)
        # Requesters may be empty if the sampled token missed; ensure setup.
        assert any(c.requesters for c in cands)
        ranked = sorted(
            cands, key=lambda c: download.tit_for_tat_rank_key(c, sender, 0.0)
        )
        assert ranked[0].uri == "dtn://fox/rich"

    def test_reputation_decay_reorders_by_now(self, registry, clique):
        # Same ledger history as the discovery twin: the penalised
        # requester's pieces regain rank as its reputation decays back.
        penalised = make_metadata(registry, uri="dtn://fox/pen",
                                  name="news island s01e01", popularity=0.1)
        stranger = make_metadata(registry, uri="dtn://fox/str",
                                 name="drama desert s01e02", popularity=0.9)
        sender = clique[NodeId(0)]
        sender.credits = ReputationCreditLedger(sender.node)
        give_pieces(sender, penalised, [0])
        give_pieces(sender, stranger, [0])
        for node, record, token in ((1, penalised, "island"), (2, stranger, "desert")):
            clique[NodeId(node)].accept_metadata(record, 0.0)
            clique[NodeId(node)].add_own_query(make_query(node, record.uri, [token]))
        for _ in range(2):
            sender.credits.reward_requested(NodeId(1), 0.0)
        for _ in range(3):
            sender.credits.penalize(NodeId(1), 0.0)
        sender.credits.reward_unrequested(NodeId(2), 0.5, 0.0)
        cands = download.build_piece_candidates(clique, 0.0)
        later = 10 * DAY
        for now in (0.0, later):
            for cand in cands:
                weight = sender.credits.weight_of_requesters(cand.requesters, now)
                assert download.tit_for_tat_rank_key(cand, sender, now)[0] == -weight

        def order(now):
            ranked = sorted(cands, key=lambda c: download.tit_for_tat_rank_key(c, sender, now))
            return [c.uri for c in ranked]

        assert order(0.0) == ["dtn://fox/str", "dtn://fox/pen"]
        assert order(later) == ["dtn://fox/pen", "dtn://fox/str"]

    def test_select_for_sender_filters(self, registry, clique):
        mine = make_metadata(registry, uri="dtn://fox/mine")
        theirs = make_metadata(registry, uri="dtn://fox/theirs")
        give_pieces(clique[NodeId(0)], mine, [0])
        give_pieces(clique[NodeId(1)], theirs, [0])
        cands = download.build_piece_candidates(clique, 0.0)
        # A cyclic-order sender ranks only the pieces it holds.
        ranked = sorted(
            (c for c in cands if NodeId(0) in c.holders),
            key=download.cooperative_rank_key,
        )
        assert [c.uri for c in ranked] == ["dtn://fox/mine"]

    def test_advertised_downloads_view(self, registry, clique):
        record = make_metadata(registry, name="news island s01e01")
        clique[NodeId(1)].accept_metadata(record, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, record.uri, ["island"]))
        downloads = download.advertised_downloads(clique, 0.0)
        assert downloads[NodeId(1)] == {record.uri}
        assert downloads[NodeId(0)] == frozenset()
