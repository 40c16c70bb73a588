"""Metadata-server ranked view and expiry heap."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.expiry import ExpiryHeap
from repro.catalog.metadata import PublisherRegistry
from repro.catalog.popularity import PopularityTracker
from repro.catalog.server import MetadataServer
from repro.perf import PerfRecorder
from repro.types import DAY, NodeId, Uri

from conftest import make_metadata


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
        # Re-publish a known URI under another name, same lifetime.
        st.tuples(st.just("rename"), _SUFFIX, st.integers(min_value=0, max_value=4)),
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
            st.sampled_from(
                ["news", "tag1", "group2", "tag3 group0", "fresh", "fresh tag2", "nothing"]
            ),
            st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        ),
        st.tuples(st.just("all"), st.one_of(st.none(), _DAY_INSTANT)),
    ),
    min_size=1,
    max_size=40,
)


def _uri(suffix):
    return Uri(f"dtn://fox/f{suffix:06d}")


@settings(max_examples=120, deadline=None)
@given(ops=_SERVER_OPS)
def test_ranked_view_matches_brute_force_under_interleaving(ops):
    """Every ranked answer (``top_popular``, ``search``, ``all_records``)
    equals a brute-force scan of the published records, whatever
    sequence of publishes, renames, expiries and popularity refreshes
    came before. Repeated searches of a token set are served from the
    per-version memo, so this also pins its invalidation."""
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
        elif kind == "rename":
            __, suffix, shape = op
            previous = reference.get(_uri(suffix))
            if previous is None:
                continue
            record = make_metadata(
                registry,
                uri=str(previous.uri),
                name=f"fresh tag{shape}",
                popularity=previous.popularity,
                created_at=previous.created_at,
                ttl=previous.ttl,
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


def test_search_memo_follows_catalog_changes(registry):
    tracker = PopularityTracker(population=4)
    server = MetadataServer(tracker)
    first = make_metadata(registry, uri="dtn://fox/a", name="news alpha", popularity=0.6)
    second = make_metadata(
        registry, uri="dtn://fox/b", name="news beta", popularity=0.3, ttl=DAY
    )
    server.publish(first)
    server.publish(second)
    news = frozenset({"news"})
    assert server.search(news, 0.0) == [first, second]
    assert server.search(news, 0.0, limit=1) == [first]
    # Liveness is filtered per call, before the limit.
    assert server.search(news, 2 * DAY) == [first]
    # A rename drops the record from its old token sets.
    renamed = make_metadata(registry, uri="dtn://fox/a", name="sports alpha", popularity=0.6)
    server.publish(renamed)
    assert server.search(news, 0.0) == [second]
    assert server.search(frozenset({"alpha"}), 0.0) == [renamed]
    # A popularity refresh re-ranks the matches.
    server.publish(first)
    for node in range(4):
        server.record_request(second.uri, NodeId(node), 0.0)
    server.refresh_popularities(0.0)
    assert [md.uri for md in server.search(news, 0.0)] == [second.uri, first.uri]
    # An expiry that drops a record drops it from the answers.
    assert server.expire(2 * DAY) == [second.uri]
    assert [md.uri for md in server.search(news, 0.0)] == [first.uri]


def test_per_instant_answers_serve_only_their_instant(registry):
    server = MetadataServer()
    first = make_metadata(registry, uri="dtn://fox/a", name="news alpha", popularity=0.9)
    brief = make_metadata(
        registry, uri="dtn://fox/b", name="news beta", popularity=0.5, ttl=DAY
    )
    last = make_metadata(registry, uri="dtn://fox/c", name="news gamma", popularity=0.1)
    for record in (first, brief, last):
        server.publish(record)
    news = frozenset({"news"})
    assert server.top_popular(0.0, 2) == [first, brief]
    # An exclusion is never answered from the kept answer, whatever
    # container carries it.
    assert server.top_popular(0.0, 2, exclude=frozenset({first.uri})) == [brief, last]
    assert server.top_popular(0.0, 2, exclude={first.uri: None}.keys()) == [brief, last]
    assert server.top_popular(0.0, 2, exclude={}.keys()) == [first, brief]
    # Callers get lists of their own.
    server.top_popular(0.0, 2).clear()
    server.search(news, 0.0).clear()
    server.search(news, 0.0, limit=5).clear()
    assert server.top_popular(0.0, 2) == [first, brief]
    assert server.search(news, 0.0) == [first, brief, last]
    # Another instant gets answers of its own, and so does the first again.
    assert server.top_popular(2 * DAY, 2) == [first, last]
    assert server.search(news, 2 * DAY, limit=2) == [first, last]
    assert server.top_popular(0.0, 2) == [first, brief]
    assert server.search(news, 0.0, limit=2) == [first, brief]
    # A catalog change at the same instant drops the kept answers.
    top = make_metadata(registry, uri="dtn://fox/d", name="news delta", popularity=0.95)
    server.publish(top)
    assert server.top_popular(0.0, 2) == [top, first]
    assert server.search(news, 0.0, limit=1) == [top]
