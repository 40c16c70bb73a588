"""Unit tests for the contact-trace model."""

from __future__ import annotations

import pytest

from repro.traces.base import Contact, ContactTrace, TraceError
from repro.types import DAY, NodeId

from conftest import clique_contact, pair_contact, tiny_trace


class TestContact:
    def test_duration_and_size(self):
        contact = clique_contact(10.0, 40.0, [1, 2, 3])
        assert contact.duration == 30.0
        assert contact.size == 3

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(TraceError):
            pair_contact(10.0, 10.0, 0, 1)
        with pytest.raises(TraceError):
            pair_contact(10.0, 5.0, 0, 1)

    def test_rejects_singleton(self):
        with pytest.raises(TraceError):
            Contact(0.0, 1.0, frozenset({NodeId(1)}))

    def test_pairs_enumerates_all_unordered_pairs(self):
        contact = clique_contact(0.0, 1.0, [3, 1, 2])
        assert sorted(contact.pairs()) == [(1, 2), (1, 3), (2, 3)]

    def test_pairwise_contact_single_pair(self):
        contact = pair_contact(0.0, 1.0, 7, 4)
        assert list(contact.pairs()) == [(4, 7)]

    def test_ordering_by_start_time(self):
        early = pair_contact(1.0, 2.0, 0, 1)
        late = pair_contact(3.0, 4.0, 0, 1)
        assert early < late


class TestContactTrace:
    def test_sorted_iteration(self):
        trace = ContactTrace(
            [pair_contact(5.0, 6.0, 0, 1), pair_contact(1.0, 2.0, 1, 2)]
        )
        starts = [c.start for c in trace]
        assert starts == [1.0, 5.0]

    def test_nodes_sorted_and_deduplicated(self):
        trace = tiny_trace()
        assert trace.nodes == (0, 1, 2)
        assert trace.num_nodes == 3

    def test_empty_trace(self):
        trace = ContactTrace([])
        assert len(trace) == 0
        assert trace.nodes == ()
        assert trace.duration == 0.0
        assert trace.stats().num_contacts == 0

    def test_indexing(self):
        trace = tiny_trace()
        assert trace[0].start == 100.0

    def test_pair_contact_counts_count_clique_pairs(self):
        trace = ContactTrace([clique_contact(0.0, 1.0, [0, 1, 2])])
        counts = trace.pair_contact_counts()
        assert counts == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_pair_contact_times_sorted(self):
        trace = tiny_trace()
        times = trace.pair_contact_times()[(0, 1)]
        assert times == sorted(times)
        assert len(times) == 3

    def test_duration_is_last_contact_end(self):
        trace = tiny_trace()
        assert trace.duration == DAY + 900.0

    def test_truncated(self):
        trace = tiny_trace()
        truncated = trace.truncated(end_time=1000.0)
        assert all(c.start < 1000.0 for c in truncated)
        assert len(truncated) == 2


class TestFrequentContacts:
    def test_rate_based_detection(self):
        # Pair (0, 1) meets twice a day for two days.
        contacts = [
            pair_contact(t * DAY / 2 + 10.0, t * DAY / 2 + 20.0, 0, 1)
            for t in range(4)
        ]
        contacts.append(pair_contact(100.0, 110.0, 0, 2))
        trace = ContactTrace(contacts)
        frequent = trace.frequent_pairs_by_rate(min_contacts_per_day=1.0)
        assert (0, 1) in frequent
        assert (0, 2) not in frequent

    def test_rate_requires_positive_threshold(self):
        with pytest.raises(TraceError):
            tiny_trace().frequent_pairs_by_rate(0.0)

    def test_max_gap_detection_rejects_large_gaps(self):
        # Meetings on day 0 and day 3 only: max gap 3 days > 1 day.
        contacts = [
            pair_contact(100.0, 200.0, 0, 1),
            pair_contact(3 * DAY + 100.0, 3 * DAY + 200.0, 0, 1),
        ]
        trace = ContactTrace(contacts)
        assert (0, 1) not in trace.frequent_pairs(max_gap_days=1.0)
        assert (0, 1) in trace.frequent_pairs(max_gap_days=4.0)

    def test_frequent_neighbors_symmetric(self):
        trace = tiny_trace()
        neighbors = trace.frequent_neighbors(3.0)
        for node, peers in neighbors.items():
            for peer in peers:
                assert node in neighbors[peer]

    def test_frequent_neighbors_covers_all_nodes(self):
        neighbors = tiny_trace().frequent_neighbors(3.0)
        assert set(neighbors) == {0, 1, 2}


class TestStats:
    def test_stats_fields(self):
        trace = tiny_trace()
        stats = trace.stats()
        assert stats.num_nodes == 3
        assert stats.num_contacts == 5
        assert stats.pairwise_fraction == pytest.approx(4 / 5)
        assert stats.mean_clique_size == pytest.approx((2 * 4 + 3) / 5)
        assert stats.duration_days == pytest.approx((DAY + 900.0) / DAY)

    def test_describe_mentions_counts(self):
        text = tiny_trace().stats().describe()
        assert "3 nodes" in text
        assert "5 contacts" in text


class TestMerge:
    def test_merge_traces_sorts_globally(self):
        a = ContactTrace([pair_contact(10.0, 20.0, 0, 1)])
        b = ContactTrace([pair_contact(1.0, 2.0, 1, 2)])
        merged = ContactTrace([*a, *b])
        assert [c.start for c in merged] == [1.0, 10.0]
        assert merged.nodes == (0, 1, 2)
