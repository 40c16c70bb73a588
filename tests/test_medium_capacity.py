"""Unit tests for medium models and the §V capacity analysis."""

from __future__ import annotations

import pytest

from repro.analysis.capacity import (
    broadcast_per_node_capacity,
    capacity_gain,
    capacity_table,
    pairwise_per_node_capacity,
)
from repro.net.medium import (
    BroadcastMedium,
    ContactBudget,
    PairwiseMedium,
    budget_from_duration,
)
from repro.types import NodeId


def clique(*ids: int) -> frozenset:
    return frozenset(NodeId(i) for i in ids)


class TestContactBudget:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ContactBudget(metadata=-1, pieces=0)
        with pytest.raises(ValueError):
            ContactBudget(metadata=0, pieces=-1)

    def test_zero_budgets_allowed(self):
        budget = ContactBudget(0, 0)
        assert budget.metadata == 0 and budget.pieces == 0


class TestBroadcastMedium:
    def test_all_others_receive(self):
        medium = BroadcastMedium()
        receivers = medium.receivers(NodeId(1), clique(1, 2, 3, 4))
        assert receivers == clique(2, 3, 4)

    def test_sender_must_be_member(self):
        with pytest.raises(ValueError):
            BroadcastMedium().receivers(NodeId(9), clique(1, 2))


class TestPairwiseMedium:
    def test_single_receiver(self):
        medium = PairwiseMedium()
        receivers = medium.receivers(NodeId(3), clique(1, 2, 3))
        assert len(receivers) == 1

    def test_names(self):
        assert BroadcastMedium().name == "broadcast"
        assert PairwiseMedium().name == "pairwise"


class TestBudgetFromDuration:
    def test_splits_volume(self):
        budget = budget_from_duration(
            duration=100.0,
            bandwidth_bytes_per_s=1000.0,
            metadata_size=100,
            piece_size=1000,
            metadata_share=0.2,
        )
        assert budget.metadata == 200  # 20kB / 100B
        assert budget.pieces == 80  # 80kB / 1000B

    def test_longer_contacts_get_more(self):
        short = budget_from_duration(10.0, 1000.0, 100, 1000)
        long = budget_from_duration(100.0, 1000.0, 100, 1000)
        assert long.pieces > short.pieces
        assert long.metadata > short.metadata

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_from_duration(0.0, 1000.0, 100, 1000)
        with pytest.raises(ValueError):
            budget_from_duration(10.0, -1.0, 100, 1000)
        with pytest.raises(ValueError):
            budget_from_duration(10.0, 1000.0, 100, 1000, metadata_share=2.0)


class TestCapacityAnalysis:
    def test_paper_formulas(self):
        # §V: broadcast (n−1)/n vs pair-wise 1/n.
        for n in range(2, 30):
            assert broadcast_per_node_capacity(n) == pytest.approx((n - 1) / n)
            assert pairwise_per_node_capacity(n) == pytest.approx(1 / n)

    def test_equal_only_at_two(self):
        assert broadcast_per_node_capacity(2) == pairwise_per_node_capacity(2)
        for n in range(3, 20):
            assert broadcast_per_node_capacity(n) > pairwise_per_node_capacity(n)

    def test_gain_is_n_minus_one(self):
        for n in range(2, 10):
            assert capacity_gain(n) == n - 1

    def test_gain_rejects_singleton(self):
        with pytest.raises(ValueError):
            capacity_gain(1)

    def test_channel_capacity_scales(self):
        assert broadcast_per_node_capacity(4, channel_capacity=2.0) == pytest.approx(1.5)
        assert pairwise_per_node_capacity(4, channel_capacity=2.0) == pytest.approx(0.5)

    def test_capacity_table(self):
        table = capacity_table([2, 4, 8])
        assert [p.clique_size for p in table] == [2, 4, 8]
        assert table[-1].broadcast / table[-1].pairwise == pytest.approx(7.0)

    def test_capacity_increases_with_density(self):
        caps = [broadcast_per_node_capacity(n) for n in range(2, 10)]
        assert caps == sorted(caps)
        assert broadcast_per_node_capacity(2) == pytest.approx(0.5)
        assert broadcast_per_node_capacity(10) == pytest.approx(0.9)

    def test_capacity_decreases_with_density(self):
        caps = [pairwise_per_node_capacity(n) for n in range(2, 10)]
        assert caps == sorted(caps, reverse=True)
        assert pairwise_per_node_capacity(2) == pytest.approx(0.5)
        assert pairwise_per_node_capacity(10) == pytest.approx(0.1)

    def test_singleton_capacity_zero(self):
        assert broadcast_per_node_capacity(1) == 0.0
        assert pairwise_per_node_capacity(1) == 0.0

    def test_capacity_rejects_zero(self):
        for capacity in (broadcast_per_node_capacity, pairwise_per_node_capacity):
            with pytest.raises(ValueError):
                capacity(0)
