"""Metadata-server ranked view, expiry heap, bloom summaries, catalog knobs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.expiry import ExpiryHeap
from repro.catalog.metadata import PublisherRegistry
from repro.catalog.popularity import PopularityTracker
from repro.catalog.server import MetadataServer
from repro.net.bloom import BloomFilter, bloom_parameters, item_hashes
from repro.perf import PerfRecorder
from repro.types import DAY, NodeId, Uri

from conftest import make_metadata


# -- bloom filter ------------------------------------------------------------------


def test_bloom_no_false_negatives():
    items = [f"dtn://fox/f{i:06d}" for i in range(500)]
    bloom = BloomFilter.from_items(items, fpr=0.01, seed=7)
    assert all(item in bloom for item in items)


def test_bloom_deterministic_bits():
    items = {f"dtn://abc/f{i}" for i in range(100)}
    a = BloomFilter.from_items(sorted(items), fpr=0.02, seed=3)
    b = BloomFilter.from_items(sorted(items, reverse=True), fpr=0.02, seed=3)
    assert a.to_bytes() == b.to_bytes()  # insertion order is irrelevant
    c = BloomFilter.from_items(sorted(items), fpr=0.02, seed=4)
    assert a.to_bytes() != c.to_bytes()  # the seed is not


def test_bloom_fpr_knob_sizes_filter():
    loose_bits, __ = bloom_parameters(1000, 0.1)
    tight_bits, __ = bloom_parameters(1000, 0.001)
    assert tight_bits > loose_bits
    with pytest.raises(ValueError):
        bloom_parameters(10, 1.5)
    with pytest.raises(ValueError):
        bloom_parameters(-1, 0.01)


def test_bloom_observed_fpr_near_target():
    members = [f"in:{i}" for i in range(2000)]
    bloom = BloomFilter.from_items(members, fpr=0.01, seed=0)
    probes = [f"out:{i}" for i in range(5000)]
    observed = sum(1 for p in probes if p in bloom) / len(probes)
    assert observed < 0.03  # ~1% target with slack


def test_bloom_contains_hashes_matches_contains():
    bloom = BloomFilter.from_items([f"u{i}" for i in range(50)], fpr=0.05, seed=9)
    for item in ["u0", "u49", "missing-a", "missing-b"]:
        assert (item in bloom) == bloom.contains_hashes(item_hashes(item, 9))


def test_bloom_size_bytes_counts_bit_array():
    bloom = BloomFilter(100, fpr=0.01, seed=0)
    assert bloom.size_bytes == (bloom.num_bits + 7) // 8


# -- expiry heap -------------------------------------------------------------------


def test_expiry_heap_stale_entries_dropped():
    heap = ExpiryHeap()
    live = {"a": 5.0, "b": 20.0}
    heap.push("a", 5.0)
    heap.push("b", 5.0)  # first publish of b...
    heap.push("b", 20.0)  # ...then republished with a longer TTL
    heap.push("c", 5.0)  # stale: c no longer exists
    assert heap.pop_due(10.0, live.get) == ["a"]
    assert heap.pop_due(30.0, live.get) == ["b"]


def test_expiry_heap_duplicate_pushes_report_once():
    heap = ExpiryHeap()
    heap.push("a", 5.0)
    heap.push("a", 5.0)
    assert heap.pop_due(10.0, {"a": 5.0}.get) == ["a"]


# -- metadata server ranked view --------------------------------------------------


def _ranked_rebuilds(perf):
    return perf.as_counters().get("perf.catalog.ranked_rebuilds", 0)


def test_ranked_view_rebuilt_once_per_publish_batch(registry):
    perf = PerfRecorder()
    server = MetadataServer(perf=perf)
    for i in range(20):
        server.publish(
            make_metadata(registry, uri=f"dtn://fox/f{i:06d}", popularity=(i % 10) / 10)
        )
    now = 1.0
    first = server.top_popular(now, 3)
    for limit in (1, 5, 20):
        server.top_popular(now, limit)
    server.all_records(now)
    assert _ranked_rebuilds(perf) == 1
    assert server.expire(now) == []  # nothing dropped: the view stays valid
    server.top_popular(now, 3)
    assert _ranked_rebuilds(perf) == 1
    newcomer = make_metadata(
        registry, uri="dtn://fox/fresh1", name="fresh news", popularity=0.99
    )
    server.publish(newcomer)
    assert server.top_popular(now, 3)[0] == newcomer
    assert first[0] != newcomer
    assert _ranked_rebuilds(perf) == 2


def _reference_ranked(records, now=None):
    """Brute-force ranking: filter the published records, then sort."""
    hits = [md for md in records.values() if now is None or md.is_live(now)]
    return sorted(hits, key=lambda md: (-md.popularity, md.uri))


_DAY_INSTANT = st.floats(min_value=0.0, max_value=6.0).map(lambda day: day * DAY)
_SUFFIX = st.integers(min_value=0, max_value=12)

_SERVER_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("publish"),
            _SUFFIX,
            st.integers(min_value=0, max_value=4),  # name-shape bucket
            st.integers(min_value=0, max_value=9),  # popularity decile
            st.integers(min_value=0, max_value=3),  # created day
            st.integers(min_value=1, max_value=4),  # ttl days
        ),
        st.tuples(st.just("expire"), _DAY_INSTANT),
        st.tuples(
            st.just("request"), _SUFFIX, st.integers(min_value=0, max_value=5), _DAY_INSTANT
        ),
        st.tuples(st.just("refresh"), _DAY_INSTANT),
        st.tuples(
            st.just("top"),
            _DAY_INSTANT,
            st.integers(min_value=0, max_value=10),
            st.frozensets(_SUFFIX, max_size=4),
        ),
        st.tuples(
            st.just("search"),
            _DAY_INSTANT,
            st.sampled_from(["news", "tag1", "group2", "tag3 group0"]),
            st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        ),
        st.tuples(st.just("all"), st.one_of(st.none(), _DAY_INSTANT)),
    ),
    min_size=1,
    max_size=40,
)


def _uri(suffix):
    return Uri(f"dtn://fox/f{suffix:06d}")


@settings(max_examples=80, deadline=None)
@given(ops=_SERVER_OPS)
def test_ranked_view_matches_brute_force_under_interleaving(ops):
    registry = PublisherRegistry(master_seed=42)
    registry.register("fox")
    tracker = PopularityTracker(population=6)
    server = MetadataServer(tracker)
    reference = {}
    for op in ops:
        kind = op[0]
        if kind == "publish":
            __, suffix, shape, decile, created_day, ttl_days = op
            record = make_metadata(
                registry,
                uri=str(_uri(suffix)),
                name=f"news tag{shape} group{suffix % 3}",
                popularity=decile / 10.0,
                created_at=created_day * DAY,
                ttl=ttl_days * DAY,
            )
            server.publish(record)
            reference[record.uri] = record
        elif kind == "expire":
            now = op[1]
            dead = sorted(
                (md.expires_at, uri) for uri, md in reference.items() if not md.is_live(now)
            )
            assert server.expire(now) == [uri for __, uri in dead]
            for __, uri in dead:
                del reference[uri]
        elif kind == "request":
            __, suffix, node, now = op
            server.record_request(_uri(suffix), NodeId(node), now)
        elif kind == "refresh":
            now = op[1]
            server.refresh_popularities(now)
            for uri, md in list(reference.items()):
                estimate = tracker.popularity_of(uri, now)
                if estimate != md.popularity:
                    reference[uri] = md.with_popularity(estimate)
        elif kind == "top":
            __, now, limit, excluded = op
            exclude = frozenset(_uri(suffix) for suffix in excluded)
            expected = [md for md in _reference_ranked(reference, now) if md.uri not in exclude]
            assert server.top_popular(now, limit, exclude) == expected[:limit]
        elif kind == "search":
            __, now, query, limit = op
            tokens = frozenset(query.split())
            expected = [
                md for md in _reference_ranked(reference, now) if tokens <= md.token_set
            ]
            if limit is not None:
                expected = expected[:limit]
            assert server.search(tokens, now, limit) == expected
        else:
            now = op[1]
            assert server.all_records(now) == _reference_ranked(reference, now)
        assert server.all_records() == _reference_ranked(reference)
        assert len(server) == len(reference)
        for uri, md in reference.items():
            assert uri in server and server.get(uri) == md


# -- simulation wiring -------------------------------------------------------------


def _diesel():
    from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace

    return generate_dieselnet_trace(DieselNetConfig(num_buses=12, num_days=4), seed=3)


def test_bloom_run_counters():
    from repro.sim.runner import Simulation, SimulationConfig

    trace = _diesel()
    kwargs = dict(seed=1, files_per_day=20, hello_blooms=True, bloom_fpr=0.05)
    obj = Simulation(trace, SimulationConfig(**kwargs)).run()
    assert obj.extra["perf.catalog.bloom_screens"] > 0
    hits = obj.extra.get("perf.catalog.bloom_hits", 0)
    assert hits >= obj.extra.get("perf.catalog.bloom_false_positives", 0)


def test_config_validates_catalog_knobs():
    from repro.sim.runner import SimulationConfig

    for knob in (
        "pull_limit",
        "push_limit",
        "popular_file_downloads",
        "proxy_downloads_per_sync",
    ):
        with pytest.raises(ValueError, match=knob):
            SimulationConfig(**{knob: -1})
        assert getattr(SimulationConfig(**{knob: 0}), knob) == 0
    with pytest.raises(ValueError):
        SimulationConfig(bloom_fpr=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(bloom_fpr=1.0)
    protocol = SimulationConfig(hello_blooms=True, bloom_fpr=0.05, seed=9).protocol_config()
    assert protocol.hello_blooms and protocol.bloom_fpr == 0.05
    assert protocol.bloom_seed == 9


def test_hello_summary_cached_and_attached(registry):
    from repro.core.node import NodeState
    from repro.net.hello import build_hello

    state = NodeState(node=NodeId(1), registry=registry)
    record = make_metadata(registry)
    state.metadata.add(record, now=0.0)
    summary = state.hello_summary(0.01, seed=5)
    assert record.uri in summary
    assert state.hello_summary(0.01, seed=5) is summary  # memoized
    assert state.hello_summary(0.02, seed=5) is not summary  # knob change
    state.metadata.add(
        make_metadata(registry, uri="dtn://fox/other", name="other news"), now=0.0
    )
    assert state.hello_summary(0.01, seed=5) is not summary  # store mutated
    hello = build_hello(state, 1.0, include_foreign_queries=False, summary=summary)
    bare = build_hello(state, 1.0, include_foreign_queries=False)
    assert hello.summary is summary
    assert hello.size_bytes == bare.size_bytes + summary.size_bytes
