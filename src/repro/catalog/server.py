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
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.catalog.expiry import ExpiryHeap
from repro.catalog.files import FileDescriptor, piece_payload
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
        self._ranked = None

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
        self._ranked = None
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
        tie-break).
        """
        if not tokens:
            return []
        token_iter = iter(tokens)
        candidate_uris = set(self._index.get(next(token_iter), ()))
        for token in token_iter:
            candidate_uris &= self._index.get(token, set())
            if not candidate_uris:
                return []
        hits = [self._records[uri] for uri in candidate_uris]
        hits = [md for md in hits if md.is_live(now)]
        hits.sort(key=lambda md: (-md.popularity, md.uri))
        return hits[:limit] if limit is not None else hits

    def top_popular(
        self,
        now: float,
        limit: int,
        exclude: FrozenSet[Uri] = frozenset(),
    ) -> List[Metadata]:
        """Most popular live records, for push distribution (§IV).

        Walks the cached ranked view and stops after ``limit`` hits.
        """
        if limit <= 0:
            return []
        hits: List[Metadata] = []
        for record in self._ranked_view():
            if record.is_live(now) and record.uri not in exclude:
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
                self._ranked = None

    def all_records(self, now: Optional[float] = None) -> List[Metadata]:
        """All (live, if ``now`` given) records, popularity-ranked."""
        ranked = self._ranked_view()
        if now is not None:
            return [md for md in ranked if md.is_live(now)]
        return list(ranked)


class FileServer:
    """Internet-side piece source for Internet-access nodes."""

    def __init__(
        self, payload_length: int = 64, perf: Optional[PerfRecorder] = None
    ) -> None:
        self._files: Dict[Uri, FileDescriptor] = {}
        self._payload_length = payload_length
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

    def fetch_piece(self, uri: Uri, index: int) -> bytes:
        """Return the payload of one piece.

        Raises
        ------
        KeyError
            If the file is unknown.
        IndexError
            If the piece index is out of range.
        """
        descriptor = self._files[uri]
        if not 0 <= index < descriptor.num_pieces:
            raise IndexError(f"piece {index} out of range for {uri}")
        return piece_payload(uri, index, self._payload_length)

    def fetch_all(self, uri: Uri) -> Iterable[Tuple[int, bytes]]:
        """Yield ``(index, payload)`` for every piece of ``uri``."""
        descriptor = self._files[uri]
        for index in range(descriptor.num_pieces):
            yield index, piece_payload(uri, index, self._payload_length)

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
