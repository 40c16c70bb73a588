"""DHT-sharded catalog, bloom summaries, and flat/sharded equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.dht import (
    KBucketTable,
    ShardRouter,
    ShardedMetadataServer,
    sha1_key,
    xor_distance,
)
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


# -- k-buckets and routing ---------------------------------------------------------


def test_kbucket_table_is_insertion_order_independent():
    owner = sha1_key("owner")
    peers = [sha1_key(f"peer:{i}") for i in range(40)]
    a = KBucketTable(owner, k=4)
    b = KBucketTable(owner, k=4)
    for peer in peers:
        a.add(peer)
    for peer in reversed(peers):
        b.add(peer)
    for key in (sha1_key("x"), sha1_key("y"), owner):
        assert a.closest(key, 3) == b.closest(key, 3)
    assert len(a) == len(b)


def test_kbucket_never_stores_owner():
    owner = sha1_key("owner")
    table = KBucketTable(owner)
    table.add(owner)
    assert len(table) == 0


def test_router_publish_lookup_agree_and_cover_all_keys():
    router = ShardRouter(8)
    for i in range(200):
        key = sha1_key(f"uri:dtn://fox/f{i}")
        index, hops = router.route(key)
        assert 0 <= index < 8
        assert router.route(key) == (index, hops)  # memoized, stable


def test_router_spreads_keys_across_shards():
    router = ShardRouter(8)
    hit = {router.shard_for_uri(f"dtn://fox/f{i:06d}")[0] for i in range(500)}
    assert len(hit) == 8  # every shard owns part of the keyspace


def test_router_single_shard_trivial():
    router = ShardRouter(1)
    assert router.route(sha1_key("anything")) == (0, 0)
    with pytest.raises(ValueError):
        ShardRouter(0)


def test_xor_distance_metric_axioms():
    a, b = sha1_key("a"), sha1_key("b")
    assert xor_distance(a, a) == 0
    assert xor_distance(a, b) == xor_distance(b, a)


# -- sharded server vs flat server -------------------------------------------------


def _fill(server, registry, n=20, ttl=3 * DAY):
    records = []
    for i in range(n):
        record = make_metadata(
            registry,
            uri=f"dtn://fox/f{i:06d}",
            name=f"news item{i % 7} shard{i % 3}",
            popularity=(i % 10) / 10.0,
            created_at=float(i % 4),
            ttl=ttl,
        )
        server.publish(record)
        records.append(record)
    return records


def test_sharded_server_matches_flat_scripted(registry):
    flat = MetadataServer()
    sharded = ShardedMetadataServer(4)
    _fill(flat, registry)
    _fill(sharded, registry)
    assert len(sharded) == len(flat)
    now = 1.5 * DAY
    for tokens in [
        frozenset({"news"}),
        frozenset({"news", "item1"}),
        frozenset({"item2", "shard0"}),
        frozenset({"absent"}),
        frozenset(),
    ]:
        assert sharded.search(tokens, now) == flat.search(tokens, now)
        assert sharded.search(tokens, now, limit=3) == flat.search(tokens, now, limit=3)
    exclude = frozenset({Uri("dtn://fox/f000003")})
    assert sharded.top_popular(now, 5) == flat.top_popular(now, 5)
    assert sharded.top_popular(now, 5, exclude) == flat.top_popular(now, 5, exclude)
    assert sharded.all_records(now) == flat.all_records(now)
    assert sharded.all_records() == flat.all_records()
    late = 10 * DAY
    assert sharded.expire(late) == flat.expire(late)
    assert len(sharded) == len(flat) == 0


def test_sharded_server_get_contains_and_counters(registry):
    perf = PerfRecorder()
    sharded = ShardedMetadataServer(4, perf=perf)
    records = _fill(sharded, registry, n=10)
    for record in records:
        assert record.uri in sharded
        assert sharded.get(record.uri) == record
    assert sharded.get(Uri("dtn://fox/nope")) is None
    counters = perf.as_counters()
    assert counters["perf.catalog.shard_lookups"] > 0
    assert sum(sharded.shard_sizes()) == len(sharded)


def test_sharded_refresh_skips_unchanged(registry):
    tracker = PopularityTracker(population=10)
    sharded = ShardedMetadataServer(4, tracker)
    flat = MetadataServer(tracker)
    _fill(sharded, registry)
    _fill(flat, registry)
    now = 1.0 * DAY
    tracker.record_request(Uri("dtn://fox/f000001"), NodeId(1), now - 1.0)
    sharded.refresh_popularities(now)
    flat.refresh_popularities(now)
    assert sharded.all_records() == flat.all_records()


def test_sharded_ranked_cache_invalidated_by_publish(registry):
    sharded = ShardedMetadataServer(2)
    _fill(sharded, registry, n=5)
    now = 1.0
    first = sharded.top_popular(now, 3)
    newcomer = make_metadata(
        registry, uri="dtn://fox/fresh1", name="fresh news", popularity=0.99
    )
    sharded.publish(newcomer)
    assert sharded.top_popular(now, 3)[0] == newcomer
    assert first[0] != newcomer


# -- simulation wiring -------------------------------------------------------------


def _diesel():
    from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace

    return generate_dieselnet_trace(DieselNetConfig(num_buses=12, num_days=4), seed=3)


def _fingerprint(trace, **overrides):
    from repro.detlint.sanitizer import result_fingerprint
    from repro.sim.runner import Simulation, SimulationConfig

    config = SimulationConfig(**{"seed": 1, "files_per_day": 20, **overrides})
    return result_fingerprint(Simulation(trace, config).run())


def test_sharded_run_fingerprint_identical_to_flat():
    trace = _diesel()
    flat = _fingerprint(trace, catalog_shards=1)
    assert _fingerprint(trace, catalog_shards=6) == flat


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

    with pytest.raises(ValueError):
        SimulationConfig(catalog_shards=0)
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


@settings(max_examples=40, deadline=None)
@given(
    shards=st.integers(min_value=1, max_value=9),
    spec=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # uri suffix
            st.integers(min_value=0, max_value=4),  # name-shape bucket
            st.integers(min_value=0, max_value=9),  # popularity decile
            st.integers(min_value=1, max_value=4),  # ttl days
        ),
        min_size=1,
        max_size=25,
    ),
    probe_day=st.floats(min_value=0.0, max_value=6.0),
)
def test_sharded_is_result_identical_to_flat(shards, spec, probe_day):
    registry = PublisherRegistry(master_seed=42)
    registry.register("fox")
    flat = MetadataServer()
    sharded = ShardedMetadataServer(shards)
    for suffix, shape, decile, ttl_days in spec:
        record = make_metadata(
            registry,
            uri=f"dtn://fox/f{suffix:06d}",
            name=f"news tag{shape} group{suffix % 3}",
            popularity=decile / 10.0,
            ttl=ttl_days * DAY,
        )
        flat.publish(record)
        sharded.publish(record)
    now = probe_day * DAY
    assert sharded.expire(now) == flat.expire(now)
    assert len(sharded) == len(flat)
    for tokens in [
        frozenset({"news"}),
        frozenset({"tag1"}),
        frozenset({"news", "group2"}),
    ]:
        assert sharded.search(tokens, now) == flat.search(tokens, now)
    assert sharded.top_popular(now, 7) == flat.top_popular(now, 7)
    assert sharded.all_records(now) == flat.all_records(now)
