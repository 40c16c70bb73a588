"""Unit tests for the credit ledger and clique coordination."""

from __future__ import annotations

import pytest

from repro.core.coordinator import cyclic_order
from repro.core.credits import REQUESTED_METADATA_CREDIT, CreditLedger
from repro.types import NodeId


class TestCreditLedger:
    def test_starts_at_zero(self):
        ledger = CreditLedger(NodeId(0))
        assert ledger.credit_of(NodeId(1)) == 0.0
        assert ledger.total_granted() == 0.0

    def test_requested_reward_is_five(self):
        # §IV-B: "v's credit is increased by 5".
        ledger = CreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1))
        assert ledger.credit_of(NodeId(1)) == REQUESTED_METADATA_CREDIT == 5.0

    def test_unrequested_reward_is_popularity(self):
        ledger = CreditLedger(NodeId(0))
        ledger.reward_unrequested(NodeId(1), popularity=0.3)
        assert ledger.credit_of(NodeId(1)) == pytest.approx(0.3)

    def test_rewards_accumulate(self):
        ledger = CreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1))
        ledger.reward_unrequested(NodeId(1), 0.5)
        assert ledger.credit_of(NodeId(1)) == pytest.approx(5.5)

    def test_self_rewards_ignored(self):
        ledger = CreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(0))
        ledger.reward_unrequested(NodeId(0), 0.9)
        assert ledger.total_granted() == 0.0

    def test_popularity_validated(self):
        ledger = CreditLedger(NodeId(0))
        with pytest.raises(ValueError):
            ledger.reward_unrequested(NodeId(1), 1.5)

    def test_weight_of_requesters_sums_credits(self):
        ledger = CreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1))
        ledger.reward_unrequested(NodeId(2), 0.4)
        weight = ledger.weight_of_requesters([NodeId(1), NodeId(2), NodeId(3)])
        assert weight == pytest.approx(5.4)

    def test_as_mapping_is_snapshot(self):
        ledger = CreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1))
        snapshot = ledger.as_mapping()
        ledger.reward_requested(NodeId(1))
        assert snapshot[NodeId(1)] == 5.0


class TestCoordinator:
    def test_cyclic_order_is_permutation(self):
        members = frozenset(NodeId(i) for i in range(6))
        order = cyclic_order(members)
        assert sorted(order) == sorted(members)

    def test_cyclic_order_agreed_upon(self):
        # Every member computes the same order: it only depends on the
        # member set (seed = sum of ids, §V-B).
        members = frozenset(NodeId(i) for i in (3, 7, 11))
        assert cyclic_order(members) == cyclic_order(frozenset(members))

    def test_cyclic_order_differs_between_cliques(self):
        a = cyclic_order(frozenset(NodeId(i) for i in range(8)))
        b = cyclic_order(frozenset(NodeId(i) for i in range(1, 9)))
        assert a != b

    def test_empty_order_raises(self):
        with pytest.raises(ValueError):
            cyclic_order(frozenset())
