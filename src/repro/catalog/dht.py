"""DHT-sharded metadata catalog: XOR routing over SHA-1 keys.

The paper's Internet side (§IV) is a single central metadata server;
:class:`~repro.catalog.server.MetadataServer` implements it as flat
dicts, which is faithful at the paper's 1.5k-file scale and a wall at
the ROADMAP's million-file north star. This module shards that server
across N *simulated* catalog nodes the way BitTorrent's Mainline DHT
shards its tracker state (see PAPERS.md, "Efficient Indexing of the
BitTorrent Distributed Hash Table"):

* every record is placed on the shard whose 160-bit node id is
  XOR-closest to ``SHA-1(uri)``, every inverted-index posting list on
  the shard closest to ``SHA-1(token)``;
* placement is found by the Kademlia iterative lookup over per-shard
  :class:`KBucketTable` routing tables — greedy hops toward the key,
  starting from a fixed bootstrap shard, so routing is a pure function
  of ``(num_shards, key)``;
* each shard maintains its own :class:`~repro.catalog.expiry.ExpiryHeap`
  so liveness maintenance costs O(dead log shard), and the coordinator
  keeps one popularity-ranked view of the whole catalog, rebuilt
  lazily and invalidated by publish/expire/refresh — ``top_popular``
  and ``all_records`` walk the cache instead of re-sorting the catalog
  per call.

Result contract: :class:`ShardedMetadataServer` is observably identical
to the flat server for every public method, at every shard count — the
same records, the same ranking keys ``(-popularity, uri)``, the same
expiry order ``(expires_at, uri)``. Sharding changes *where* state
lives and *how much* of it each operation touches, never what callers
see; a hypothesis property test pins this equivalence.

Instrumentation lands in ``perf.catalog.*`` counters (shard lookups,
route hops, heap expiries, ranked-view rebuilds), which are excluded
from result fingerprints.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.catalog.expiry import ExpiryHeap
from repro.catalog.metadata import Metadata
from repro.catalog.popularity import PopularityTracker
from repro.perf import PerfRecorder
from repro.types import NodeId, Uri

#: Width of the DHT key space (SHA-1, as in Mainline DHT).
KEY_BITS = 160

#: Default k-bucket capacity (Kademlia's ``k``).
DEFAULT_BUCKET_SIZE = 8


def sha1_key(text: str) -> int:
    """The 160-bit DHT key of a string (SHA-1, big-endian)."""
    return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest(), "big")


def xor_distance(a: int, b: int) -> int:
    """Kademlia's XOR metric between two 160-bit keys."""
    return a ^ b


class KBucketTable:
    """One shard's Kademlia routing table.

    Peers are filed into buckets by the bit length of their XOR
    distance from the owner (bucket ``i`` holds peers whose distance
    has its highest set bit at position ``i``). Each bucket keeps at
    most ``k`` peers — deterministically the ``k`` XOR-closest to the
    owner, so the table is a pure function of the peer *set*, not of
    insertion order.
    """

    __slots__ = ("owner_id", "k", "_buckets", "_flat")

    def __init__(self, owner_id: int, k: int = DEFAULT_BUCKET_SIZE) -> None:
        if k < 1:
            raise ValueError(f"bucket size must be >= 1, got {k}")
        self.owner_id = owner_id
        self.k = k
        self._buckets: Dict[int, List[int]] = {}
        #: Flattened peer list, rebuilt lazily after :meth:`add` —
        #: ``closest`` runs once per routing hop, so re-flattening the
        #: buckets there dominated million-publish routing cost.
        self._flat: Optional[List[int]] = None

    def add(self, node_id: int) -> None:
        """File a peer id; the owner itself is never stored."""
        if node_id == self.owner_id:
            return
        index = xor_distance(self.owner_id, node_id).bit_length() - 1
        bucket = self._buckets.setdefault(index, [])
        if node_id in bucket:
            return
        bucket.append(node_id)
        bucket.sort(key=lambda nid: (xor_distance(self.owner_id, nid), nid))
        del bucket[self.k :]
        self._flat = None

    def _peers(self) -> List[int]:
        if self._flat is None:
            self._flat = [
                nid for __, bucket in sorted(self._buckets.items()) for nid in bucket
            ]
        return self._flat

    def __len__(self) -> int:
        return len(self._peers())

    def closest(self, key: int, count: int = 1) -> List[int]:
        """The ``count`` known peers XOR-closest to ``key``."""
        peers = self._peers()
        if count == 1:
            if not peers:
                return []
            return [min(peers, key=lambda nid: (xor_distance(nid, key), nid))]
        ranked = sorted(peers, key=lambda nid: (xor_distance(nid, key), nid))
        return ranked[:count]


class ShardRouter:
    """Deterministic XOR-distance routing over a fixed shard cluster.

    Shard ids are ``SHA-1("catalog-shard:<index>")`` — fixed for a
    given shard count, independent of any run state. ``route`` runs the
    iterative Kademlia lookup: starting from the bootstrap shard (the
    numerically smallest id), greedily hop to the known peer closest to
    the key until no peer improves on the current shard. Publish and
    lookup both route through this walk, so the two always agree on
    placement even if a k-bucket truncation stops the walk short of the
    global optimum.
    """

    def __init__(self, num_shards: int, k: int = DEFAULT_BUCKET_SIZE) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self._ids: List[int] = [sha1_key(f"catalog-shard:{i}") for i in range(num_shards)]
        self._index_of: Dict[int, int] = {nid: i for i, nid in enumerate(self._ids)}
        if len(self._index_of) != num_shards:
            raise ValueError("SHA-1 shard id collision")  # pragma: no cover
        self._tables: List[KBucketTable] = []
        for nid in self._ids:
            table = KBucketTable(nid, k=k)
            for peer in sorted(self._ids):
                table.add(peer)
            self._tables.append(table)
        self._bootstrap = min(self._ids)
        #: Route memo: key -> (shard index, hops). Lookups are pure, so
        #: the memo only changes costs, never results.
        self._memo: Dict[int, Tuple[int, int]] = {}

    def table_of(self, shard_index: int) -> KBucketTable:
        return self._tables[shard_index]

    def route(self, key: int) -> Tuple[int, int]:
        """``(shard index, lookup hops)`` owning ``key``."""
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        current = self._bootstrap
        hops = 0
        while True:
            nearer = self._tables[self._index_of[current]].closest(key, 1)
            if not nearer:
                break
            best = nearer[0]
            if xor_distance(best, key) < xor_distance(current, key):
                current = best
                hops += 1
            else:
                break
        result = (self._index_of[current], hops)
        self._memo[key] = result
        return result

    def shard_for_uri(self, uri: str) -> Tuple[int, int]:
        return self.route(sha1_key(f"uri:{uri}"))

    def shard_for_token(self, token: str) -> Tuple[int, int]:
        return self.route(sha1_key(f"token:{token}"))


class _CatalogShard:
    """One shard's slice of the catalog: records, postings, expiry."""

    __slots__ = ("records", "postings", "expiry")

    def __init__(self) -> None:
        self.records: Dict[Uri, Metadata] = {}
        #: Inverted index slice: token -> URIs (the URIs themselves may
        #: live on other shards — postings shard by token key).
        self.postings: Dict[str, Set[Uri]] = {}
        self.expiry = ExpiryHeap()


class ShardedMetadataServer:
    """Drop-in :class:`~repro.catalog.server.MetadataServer` replacement.

    Same public surface and observable behavior; state sharded across
    ``num_shards`` simulated catalog nodes with XOR-distance placement.
    """

    def __init__(
        self,
        num_shards: int,
        popularity_tracker: Optional[PopularityTracker] = None,
        perf: Optional[PerfRecorder] = None,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
    ) -> None:
        self.router = ShardRouter(num_shards, k=bucket_size)
        self._shards = [_CatalogShard() for __ in range(num_shards)]
        self._tracker = popularity_tracker
        self._perf = perf if perf is not None else PerfRecorder()
        self._count = 0
        #: Cached popularity-ranked view of the whole catalog, or None
        #: when dirty. Entries may be expired (filtered per call, like
        #: the flat server) but never stale: publish, expire and
        #: refresh all invalidate.
        self._ranked: Optional[List[Metadata]] = None

    # -- routing ------------------------------------------------------------------

    def _uri_shard(self, uri: str) -> _CatalogShard:
        index, hops = self.router.shard_for_uri(uri)
        self._perf.count("catalog.shard_lookups")
        if hops:
            self._perf.count("catalog.route_hops", hops)
        return self._shards[index]

    def _token_shard(self, token: str) -> _CatalogShard:
        index, hops = self.router.shard_for_token(token)
        self._perf.count("catalog.shard_lookups")
        if hops:
            self._perf.count("catalog.route_hops", hops)
        return self._shards[index]

    # -- flat-server surface ------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, uri: Uri) -> bool:
        return uri in self._uri_shard(uri).records

    def publish(self, metadata: Metadata) -> None:
        """Register a record on its URI shard; index tokens by shard.

        Re-publishing replaces the record and drops postings of tokens
        the new name no longer carries — the flat server's contract.
        """
        shard = self._uri_shard(metadata.uri)
        previous = shard.records.get(metadata.uri)
        if previous is None:
            self._count += 1
        shard.records[metadata.uri] = metadata
        shard.expiry.push(metadata.uri, metadata.expires_at)
        if previous is not None:
            for token in sorted(previous.token_set - metadata.token_set):
                self._drop_posting(token, metadata.uri)
        for token in sorted(metadata.token_set):
            self._token_shard(token).postings.setdefault(token, set()).add(metadata.uri)
        self._ranked = None

    def _drop_posting(self, token: str, uri: Uri) -> None:
        token_shard = self._token_shard(token)
        bucket = token_shard.postings.get(token)
        if bucket is not None:
            bucket.discard(uri)
            if not bucket:
                del token_shard.postings[token]

    def get(self, uri: Uri) -> Optional[Metadata]:
        return self._uri_shard(uri).records.get(uri)

    def expire(self, now: float) -> List[Uri]:
        """Drop expired records across all shards (heap-served).

        Returns the removed URIs in global ``(expires_at, uri)`` order —
        exactly the flat server's order.
        """
        dead_pairs: List[Tuple[float, Uri]] = []
        for shard in self._shards:
            lookup: Callable[[str], Optional[float]] = lambda key, records=shard.records: (
                records[Uri(key)].expires_at if Uri(key) in records else None
            )
            for key in shard.expiry.pop_due(now, lookup):
                uri = Uri(key)
                record = shard.records.pop(uri)
                dead_pairs.append((record.expires_at, uri))
                for token in sorted(record.token_set):
                    self._drop_posting(token, uri)
        if not dead_pairs:
            return []
        self._count -= len(dead_pairs)
        self._perf.count("catalog.heap_expiries", len(dead_pairs))
        self._ranked = None
        dead_pairs.sort()
        return [uri for __, uri in dead_pairs]

    def search(
        self,
        tokens: FrozenSet[str],
        now: float,
        limit: Optional[int] = None,
    ) -> List[Metadata]:
        """Ranked conjunctive search over the sharded inverted index."""
        if not tokens:
            return []
        token_iter = iter(sorted(tokens))
        first = next(token_iter)
        candidate_uris = set(self._token_shard(first).postings.get(first, ()))
        for token in token_iter:
            candidate_uris &= self._token_shard(token).postings.get(token, set())
            if not candidate_uris:
                return []
        hits = [self._uri_shard(uri).records[uri] for uri in sorted(candidate_uris)]
        hits = [md for md in hits if md.is_live(now)]
        hits.sort(key=lambda md: (-md.popularity, md.uri))
        return hits[:limit] if limit is not None else hits

    def _ranked_view(self) -> List[Metadata]:
        """The cached popularity-ranked catalog, rebuilding if dirty."""
        ranked = self._ranked
        if ranked is None:
            ranked = []
            for shard in self._shards:
                ranked.extend(shard.records.values())
            ranked.sort(key=lambda md: (-md.popularity, md.uri))
            self._ranked = ranked
            self._perf.count("catalog.ranked_rebuilds")
        return ranked

    def top_popular(
        self,
        now: float,
        limit: int,
        exclude: FrozenSet[Uri] = frozenset(),
    ) -> List[Metadata]:
        """Most popular live records, served from the cached view."""
        if limit <= 0:
            return []
        hits: List[Metadata] = []
        for record in self._ranked_view():
            if record.is_live(now) and record.uri not in exclude:
                hits.append(record)
                if len(hits) == limit:
                    break
        return hits

    def record_request(self, uri: Uri, node: NodeId, now: float) -> None:
        if self._tracker is not None:
            self._tracker.record_request(uri, node, now)

    def refresh_popularities(self, now: float) -> None:
        """Per-shard popularity refresh; skips unchanged records."""
        if self._tracker is None:
            return
        changed = False
        for shard in self._shards:
            for uri, record in list(shard.records.items()):
                estimate = self._tracker.popularity_of(uri, now)
                # Exact-identity skip is intended: replace only when the
                # estimate is bitwise different from the stored value.
                if estimate != record.popularity:  # detlint: ignore[DET004]
                    shard.records[uri] = record.with_popularity(estimate)
                    changed = True
        if changed:
            self._ranked = None

    def all_records(self, now: Optional[float] = None) -> List[Metadata]:
        """All (live, if ``now`` given) records, popularity-ranked."""
        ranked = self._ranked_view()
        if now is not None:
            return [md for md in ranked if md.is_live(now)]
        return list(ranked)

    # -- diagnostics --------------------------------------------------------------

    def shard_sizes(self) -> List[int]:
        """Records per shard (placement-balance diagnostic)."""
        return [len(shard.records) for shard in self._shards]
