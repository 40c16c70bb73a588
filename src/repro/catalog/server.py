"""Internet-side servers: metadata search and file serving.

The metadata server (§IV) stores every published metadata record,
answers ranked keyword searches, serves the most popular records for
push distribution and keeps the network-wide popularity estimates. The
file server hands out verified pieces to Internet-access nodes.

Liveness maintenance runs through a per-server
:class:`~repro.catalog.expiry.ExpiryHeap`: ``expire`` pops only the
entries whose instant has passed (O(dead log n)) instead of scanning
the whole catalog, with behavior identical to the old scan — the same
records are removed, and the removed-URI list drains in deterministic
``(expires_at, uri)`` order.

``top_popular`` and ``all_records`` are served from a cached
popularity-ranked view of the catalog, sorted by ``(-popularity, uri)``
and rebuilt lazily after ``publish``, an ``expire`` that drops records,
or a ``refresh_popularities`` that changes one. Push distribution asks
for the top few records on every Internet sync, so walking the cached
list replaces a full-catalog sort per call.

``search`` answers are memoized the same way, per catalog version:
the ``(-popularity, uri)``-sorted matches of each token set are kept
until the next change that resets the ranked view. Access nodes pull
for the same queries every sync, so a call usually only filters the
kept list by liveness and applies its limit.

Every access node syncs at the same instant, so two answers are also
kept for the instant of the last call, under the same reset rule: the
live matches of each searched token set, and the ``top_popular``
answers that exclude nothing (the seeding pass).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Container, Dict, FrozenSet, List, Optional, Set

from repro.catalog.expiry import ExpiryHeap
from repro.catalog.files import FileDescriptor
from repro.catalog.metadata import Metadata
from repro.catalog.popularity import PopularityTracker
from repro.perf import PerfRecorder
from repro.types import NodeId, Uri


class MetadataServer:
    """Central metadata registry with an inverted keyword index.

    Search results are ranked by decreasing popularity, matching the
    pull-based distribution rule ("the pull-based metadata distribution
    is based on the popularities of the metadata, which can be
    calculated from a central server", §IV).
    """

    def __init__(
        self,
        popularity_tracker: Optional[PopularityTracker] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self._records: Dict[Uri, Metadata] = {}
        self._index: Dict[str, Set[Uri]] = defaultdict(set)
        self._tracker = popularity_tracker
        self._expiry = ExpiryHeap()
        #: Cached popularity-ranked view of the whole catalog, or None
        #: when dirty. Entries may be expired (filtered per call) but
        #: never stale: publish, expire and refresh all invalidate.
        self._ranked: Optional[List[Metadata]] = None
        #: Ranked matches per searched token set, under the same
        #: validity rule as ``_ranked`` (cleared wherever it is reset).
        self._matches: Dict[FrozenSet[str], List[Metadata]] = {}
        #: The instant the two memos below answer for, or None.
        self._instant: Optional[float] = None
        #: Live ranked matches per searched token set at ``_instant``.
        self._live_matches: Dict[FrozenSet[str], List[Metadata]] = {}
        #: ``top_popular`` answers per limit at ``_instant``, for calls
        #: that exclude nothing.
        self._top: Dict[int, List[Metadata]] = {}
        #: Optional ``perf.catalog.*`` instrumentation sink. The
        #: counters record implementation activity only (heap pops,
        #: ranked-view rebuilds), and are excluded from result
        #: fingerprints.
        self._perf = perf if perf is not None else PerfRecorder()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, uri: Uri) -> bool:
        return uri in self._records

    def publish(self, metadata: Metadata) -> None:
        """Register a metadata record and index its name tokens.

        Re-publishing a URI replaces the record; postings of tokens the
        new name no longer carries are dropped so the index never holds
        stale entries for live URIs.
        """
        previous = self._records.get(metadata.uri)
        self._records[metadata.uri] = metadata
        self._expiry.push(metadata.uri, metadata.expires_at)
        if previous is not None:
            for token in previous.token_set - metadata.token_set:
                self._drop_posting(token, metadata.uri)
        for token in metadata.token_set:
            self._index[token].add(metadata.uri)
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the ranked view and the memos (the catalog changed)."""
        self._ranked = None
        self._matches = {}
        self._instant = None

    def _at_instant(self, now: float) -> None:
        """Drop the per-instant memos unless they answer for ``now``."""
        if self._instant != now:
            self._instant = now
            self._live_matches = {}
            self._top = {}

    def _drop_posting(self, token: str, uri: Uri) -> None:
        bucket = self._index.get(token)
        if bucket is not None:
            bucket.discard(uri)
            if not bucket:
                del self._index[token]

    def get(self, uri: Uri) -> Optional[Metadata]:
        """Return the record for ``uri`` (with current popularity)."""
        return self._records.get(uri)

    def _expires_at_of(self, uri: str) -> Optional[float]:
        record = self._records.get(Uri(uri))
        return None if record is None else record.expires_at

    def expire(self, now: float) -> List[Uri]:
        """Drop expired records; return the URIs in (expiry, URI) order.

        Served from the expiry heap: cost is proportional to the number
        of dead records, not the catalog size. The returned order is
        each record's *current* expiry instant, URI tie-break.
        """
        pairs = []
        for key in self._expiry.pop_due(now, self._expires_at_of):
            uri = Uri(key)
            record = self._records.pop(uri)
            pairs.append((record.expires_at, uri))
            for token in sorted(record.token_set):
                self._drop_posting(token, uri)
        if not pairs:
            return []
        self._perf.count("catalog.heap_expiries", len(pairs))
        self._invalidate()
        pairs.sort()
        return [uri for __, uri in pairs]

    def search(
        self,
        tokens: FrozenSet[str],
        now: float,
        limit: Optional[int] = None,
    ) -> List[Metadata]:
        """Ranked conjunctive keyword search.

        Returns live records whose name tokens contain every query
        token, ordered by decreasing popularity (URI as a deterministic
        tie-break). The ranked matches of ``tokens`` are computed once
        per catalog version, and the live ones once per instant (see the
        module docstring).
        """
        if not tokens:
            return []
        self._at_instant(now)
        hits = self._live_matches.get(tokens)
        if hits is None:
            matches = self._matches.get(tokens)
            if matches is None:
                token_iter = iter(tokens)
                candidate_uris = set(self._index.get(next(token_iter), ()))
                for token in token_iter:
                    candidate_uris &= self._index.get(token, set())
                    if not candidate_uris:
                        break
                matches = sorted(
                    (self._records[uri] for uri in candidate_uris),
                    key=lambda md: (-md.popularity, md.uri),
                )
                self._matches[tokens] = matches
            hits = [md for md in matches if now < md.expires_at]
            self._live_matches[tokens] = hits
        return hits[:limit] if limit is not None else list(hits)

    def top_popular(
        self,
        now: float,
        limit: int,
        exclude: Container[Uri] = frozenset(),
    ) -> List[Metadata]:
        """Most popular live records not in ``exclude``, for push
        distribution (§IV).

        Walks the cached ranked view and stops after ``limit`` hits. An
        answer that excludes nothing is kept for the instant.
        """
        if limit <= 0:
            return []
        if exclude:
            return self._walk_ranked(now, limit, exclude)
        self._at_instant(now)
        kept = self._top.get(limit)
        if kept is None:
            kept = self._top[limit] = self._walk_ranked(now, limit, exclude)
        return list(kept)

    def _walk_ranked(self, now: float, limit: int, exclude: Container[Uri]) -> List[Metadata]:
        """The first ``limit`` live records of the ranked view not in ``exclude``."""
        hits: List[Metadata] = []
        for record in self._ranked_view():
            if now < record.expires_at and record.uri not in exclude:
                hits.append(record)
                if len(hits) == limit:
                    break
        return hits

    def _ranked_view(self) -> List[Metadata]:
        """The cached popularity-ranked catalog, rebuilding if dirty."""
        ranked = self._ranked
        if ranked is None:
            ranked = sorted(
                self._records.values(), key=lambda md: (-md.popularity, md.uri)
            )
            self._ranked = ranked
            self._perf.count("catalog.ranked_rebuilds")
        return ranked

    def record_request(self, uri: Uri, node: NodeId, now: float) -> None:
        """Log an access-node request for popularity tracking."""
        if self._tracker is not None:
            self._tracker.record_request(uri, node, now)

    def refresh_popularities(self, now: float) -> None:
        """Replace stored popularities with tracker estimates.

        No-op when the server was built without a tracker (the
        simulations then keep the generation-time popularity, which is
        the paper's simplified evaluation model). Records whose tracker
        estimate equals the stored popularity are left untouched —
        allocating a replacement record for every URI on every refresh
        was pure garbage-collector pressure at catalog scale.
        """
        if self._tracker is None:
            return
        for uri, record in list(self._records.items()):
            estimate = self._tracker.popularity_of(uri, now)
            if estimate != record.popularity:
                self._records[uri] = record.with_popularity(estimate)
                self._invalidate()

    def all_records(self, now: Optional[float] = None) -> List[Metadata]:
        """All (live, if ``now`` given) records, popularity-ranked."""
        ranked = self._ranked_view()
        if now is not None:
            return [md for md in ranked if md.is_live(now)]
        return list(ranked)


class FileServer:
    """Internet-side piece source for Internet-access nodes."""

    def __init__(self, perf: Optional[PerfRecorder] = None) -> None:
        self._files: Dict[Uri, FileDescriptor] = {}
        self._expiry = ExpiryHeap()
        self._perf = perf if perf is not None else PerfRecorder()

    def __contains__(self, uri: Uri) -> bool:
        return uri in self._files

    def publish(self, descriptor: FileDescriptor) -> None:
        """Make a file's pieces available for download."""
        self._files[descriptor.uri] = descriptor
        self._expiry.push(descriptor.uri, descriptor.expires_at)

    def descriptor(self, uri: Uri) -> Optional[FileDescriptor]:
        return self._files.get(uri)

    def _expires_at_of(self, uri: str) -> Optional[float]:
        descriptor = self._files.get(Uri(uri))
        return None if descriptor is None else descriptor.expires_at

    def expire(self, now: float) -> List[Uri]:
        """Drop expired files; URIs returned in (expiry, URI) order."""
        pairs = []
        for key in self._expiry.pop_due(now, self._expires_at_of):
            uri = Uri(key)
            pairs.append((self._files.pop(uri).expires_at, uri))
        if not pairs:
            return []
        self._perf.count("catalog.heap_expiries", len(pairs))
        pairs.sort()
        return [uri for __, uri in pairs]
