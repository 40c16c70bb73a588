"""Unit tests for the cooperative/TFT metadata selection policies."""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core import discovery
from repro.core.credits import ReputationCreditLedger
from repro.core.node import NodeState
from repro.types import DAY, NodeId

from conftest import make_metadata, make_node, make_query


@pytest.fixture
def clique(registry) -> Dict[NodeId, NodeState]:
    return {NodeId(i): make_node(registry, node=i) for i in range(3)}


class TestCandidateBuilding:
    def test_candidate_requires_holder_and_missing(self, registry, clique):
        record = make_metadata(registry)
        clique[NodeId(0)].accept_metadata(record, 0.0)
        cands = discovery.build_metadata_candidates(clique, 0.0, include_foreign=False)
        assert len(cands) == 1
        cand = cands[0]
        assert cand.holders == {NodeId(0)}
        assert cand.missing == {NodeId(1), NodeId(2)}

    def test_universally_held_record_not_a_candidate(self, registry, clique):
        record = make_metadata(registry)
        for state in clique.values():
            state.accept_metadata(record, 0.0)
        assert discovery.build_metadata_candidates(clique, 0.0, False) == []

    def test_expired_record_not_a_candidate(self, registry, clique):
        record = make_metadata(registry, ttl=10.0)
        clique[NodeId(0)].accept_metadata(record, 0.0)
        assert discovery.build_metadata_candidates(clique, 20.0, False) == []

    def test_own_requesters_from_matching_queries(self, registry, clique):
        record = make_metadata(registry, name="news island s01e01")
        clique[NodeId(0)].accept_metadata(record, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, record.uri, ["island"]))
        clique[NodeId(2)].add_own_query(make_query(2, "dtn://fox/z", ["desert"]))
        cand = discovery.build_metadata_candidates(clique, 0.0, False)[0]
        assert cand.own_requesters == {NodeId(1)}
        assert cand.proxy_requesters == frozenset()

    def test_proxy_requesters_only_with_foreign_flag(self, registry, clique):
        record = make_metadata(registry, name="news island s01e01")
        clique[NodeId(0)].accept_metadata(record, 0.0)
        clique[NodeId(1)].store_foreign_queries(
            NodeId(9), [make_query(9, record.uri, ["island"])]
        )
        without = discovery.build_metadata_candidates(clique, 0.0, False)[0]
        assert without.proxy_requesters == frozenset()
        with_foreign = discovery.build_metadata_candidates(clique, 0.0, True)[0]
        assert with_foreign.proxy_requesters == {NodeId(1)}

    def test_holder_is_never_a_requester(self, registry, clique):
        record = make_metadata(registry)
        clique[NodeId(0)].accept_metadata(record, 0.0)
        clique[NodeId(0)].add_own_query(make_query(0, record.uri, ["news"]))
        cand = discovery.build_metadata_candidates(clique, 0.0, False)[0]
        assert NodeId(0) not in cand.requesters

    def test_requesters_property_unions(self, registry, clique):
        record = make_metadata(registry, name="news island s01e01")
        clique[NodeId(0)].accept_metadata(record, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, record.uri, ["island"]))
        clique[NodeId(2)].store_foreign_queries(
            NodeId(9), [make_query(9, record.uri, ["news"])]
        )
        cand = discovery.build_metadata_candidates(clique, 0.0, True)[0]
        assert cand.requesters == {NodeId(1), NodeId(2)}
        assert cand.requested


class TestCooperativeRanking:
    def _candidates(self, registry, clique):
        requested = make_metadata(
            registry, uri="dtn://fox/req", name="news island s01e01", popularity=0.1
        )
        popular = make_metadata(
            registry, uri="dtn://fox/pop", name="drama desert s01e02", popularity=0.9
        )
        clique[NodeId(0)].accept_metadata(requested, 0.0)
        clique[NodeId(0)].accept_metadata(popular, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, requested.uri, ["island"]))
        return discovery.build_metadata_candidates(clique, 0.0, False)

    def test_requested_precede_popular(self, registry, clique):
        # Phase 1 (matching queries) before phase 2 (popularity), §IV-A.
        ranked = sorted(
            self._candidates(registry, clique), key=discovery.cooperative_rank_key
        )
        assert ranked[0].metadata.uri == "dtn://fox/req"
        assert ranked[1].metadata.uri == "dtn://fox/pop"

    def test_more_requesters_first(self, registry, clique):
        one = make_metadata(registry, uri="dtn://fox/one", name="news island s01e01")
        two = make_metadata(registry, uri="dtn://fox/two", name="drama desert s01e02")
        clique[NodeId(0)].accept_metadata(one, 0.0)
        clique[NodeId(0)].accept_metadata(two, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, two.uri, ["desert"]))
        clique[NodeId(2)].add_own_query(make_query(2, two.uri, ["drama"]))
        clique[NodeId(1)].add_own_query(make_query(1, one.uri, ["island"]))
        ranked = sorted(
            discovery.build_metadata_candidates(clique, 0.0, False),
            key=discovery.cooperative_rank_key,
        )
        assert ranked[0].metadata.uri == "dtn://fox/two"

    def test_popularity_breaks_ties_in_phase_two(self, registry, clique):
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.2)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.8)
        clique[NodeId(0)].accept_metadata(low, 0.0)
        clique[NodeId(0)].accept_metadata(high, 0.0)
        ranked = sorted(
            discovery.build_metadata_candidates(clique, 0.0, False),
            key=discovery.cooperative_rank_key,
        )
        assert ranked[0].metadata.uri == "dtn://fox/high"

    def test_own_requesters_outrank_proxy_requesters(self, registry, clique):
        own = make_metadata(registry, uri="dtn://fox/own", name="news island s01e01")
        proxy = make_metadata(registry, uri="dtn://fox/proxy", name="drama desert s01e02")
        clique[NodeId(0)].accept_metadata(own, 0.0)
        clique[NodeId(0)].accept_metadata(proxy, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, own.uri, ["island"]))
        clique[NodeId(2)].store_foreign_queries(
            NodeId(9), [make_query(9, proxy.uri, ["desert"])]
        )
        ranked = sorted(
            discovery.build_metadata_candidates(clique, 0.0, True),
            key=discovery.cooperative_rank_key,
        )
        assert ranked[0].metadata.uri == "dtn://fox/own"


class TestTitForTatRanking:
    def test_credit_weight_dominates(self, registry, clique):
        rich = make_metadata(registry, uri="dtn://fox/rich", name="news island s01e01",
                             popularity=0.1)
        poor = make_metadata(registry, uri="dtn://fox/poor", name="drama desert s01e02",
                             popularity=0.9)
        sender = clique[NodeId(0)]
        sender.accept_metadata(rich, 0.0)
        sender.accept_metadata(poor, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, rich.uri, ["island"]))
        clique[NodeId(2)].add_own_query(make_query(2, poor.uri, ["desert"]))
        # Node 1 has earned credit with the sender; node 2 has not.
        sender.credits.reward_requested(NodeId(1))
        cands = discovery.build_metadata_candidates(clique, 0.0, False)
        ranked = sorted(
            cands, key=lambda c: discovery.tit_for_tat_rank_key(c, sender, 0.0)
        )
        assert ranked[0].metadata.uri == "dtn://fox/rich"

    def test_zero_credit_falls_back_to_phase_and_popularity(self, registry, clique):
        requested = make_metadata(registry, uri="dtn://fox/req",
                                  name="news island s01e01", popularity=0.1)
        popular = make_metadata(registry, uri="dtn://fox/pop",
                                name="drama desert s01e02", popularity=0.9)
        sender = clique[NodeId(0)]
        sender.accept_metadata(requested, 0.0)
        sender.accept_metadata(popular, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, requested.uri, ["island"]))
        cands = discovery.build_metadata_candidates(clique, 0.0, False)
        ranked = sorted(
            cands, key=lambda c: discovery.tit_for_tat_rank_key(c, sender, 0.0)
        )
        assert ranked[0].metadata.uri == "dtn://fox/req"

    def test_reputation_decay_reorders_by_now(self, registry, clique):
        # Under the reputation ledger the weight depends on when it is
        # read: a penalised requester's reputation decays back toward
        # neutral, so its records regain rank as time passes.
        penalised = make_metadata(registry, uri="dtn://fox/pen", name="news island s01e01",
                                  popularity=0.1)
        stranger = make_metadata(registry, uri="dtn://fox/str", name="drama desert s01e02",
                                 popularity=0.9)
        sender = clique[NodeId(0)]
        sender.credits = ReputationCreditLedger(sender.node)
        sender.accept_metadata(penalised, 0.0)
        sender.accept_metadata(stranger, 0.0)
        clique[NodeId(1)].add_own_query(make_query(1, penalised.uri, ["island"]))
        clique[NodeId(2)].add_own_query(make_query(2, stranger.uri, ["desert"]))
        for _ in range(2):
            sender.credits.reward_requested(NodeId(1), 0.0)
        for _ in range(3):
            sender.credits.penalize(NodeId(1), 0.0)
        sender.credits.reward_unrequested(NodeId(2), 0.5, 0.0)
        cands = discovery.build_metadata_candidates(clique, 0.0, False)
        later = 10 * DAY
        for now in (0.0, later):
            for cand in cands:
                weight = sender.credits.weight_of_requesters(cand.requesters, now)
                assert discovery.tit_for_tat_rank_key(cand, sender, now)[0] == -weight

        def order(now):
            ranked = sorted(
                cands, key=lambda c: discovery.tit_for_tat_rank_key(c, sender, now)
            )
            return [c.metadata.uri for c in ranked]

        assert order(0.0) == ["dtn://fox/str", "dtn://fox/pen"]
        assert order(later) == ["dtn://fox/pen", "dtn://fox/str"]

    def test_select_for_sender_filters_to_held_records(self, registry, clique):
        # A cyclic-order sender ranks only the candidates it holds.
        mine = make_metadata(registry, uri="dtn://fox/mine")
        theirs = make_metadata(registry, uri="dtn://fox/theirs")
        clique[NodeId(0)].accept_metadata(mine, 0.0)
        clique[NodeId(1)].accept_metadata(theirs, 0.0)
        cands = discovery.build_metadata_candidates(clique, 0.0, False)
        ranked = sorted(
            (c for c in cands if NodeId(0) in c.holders),
            key=discovery.cooperative_rank_key,
        )
        assert [c.metadata.uri for c in ranked] == ["dtn://fox/mine"]
