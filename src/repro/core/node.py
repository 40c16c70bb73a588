"""Per-node protocol state.

A node runs a file-discovery process and a file-download process
(§III-B). Its state comprises:

* a **metadata store** (bounded, evicting the least popular record);
* a **piece store** with checksum verification;
* its **own queries** plus, under full MBT, the stored queries of its
  *frequent contacting nodes* (§IV: "nodes can also store the query
  strings of their most frequently connected nodes to cooperatively
  shorten file discovery time");
* a **neighbor table** fed by hello messages (only the wire runtime
  fills and reads it; the simulator's hellos leave it empty);
* a tit-for-tat **credit ledger**;
* an Internet-access flag (§VI-A) and a behavior :class:`Strategy`
  (selfish free-riders of §IV-B/§V-B get ``free_rider``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, KeysView, List, Mapping, Optional, Set, Tuple

from repro.catalog.files import IntegrityError, PieceStore
from repro.catalog.metadata import Metadata, PublisherRegistry, verify_metadata
from repro.catalog.query import Query
from repro.core.credits import make_ledger
from repro.core.strategies import HONEST, Strategy
from repro.types import NodeId, Uri


@dataclass
class NodeStats:
    """Operational counters for one node."""

    metadata_received: int = 0
    metadata_duplicates: int = 0
    metadata_rejected_auth: int = 0
    pieces_received: int = 0
    piece_duplicates: int = 0
    metadata_sent: int = 0
    pieces_sent: int = 0
    files_completed: int = 0
    internet_syncs: int = 0
    metadata_evictions: int = 0
    checksum_rejections: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "metadata_received": self.metadata_received,
            "metadata_duplicates": self.metadata_duplicates,
            "metadata_rejected_auth": self.metadata_rejected_auth,
            "pieces_received": self.pieces_received,
            "piece_duplicates": self.piece_duplicates,
            "metadata_sent": self.metadata_sent,
            "pieces_sent": self.pieces_sent,
            "files_completed": self.files_completed,
            "internet_syncs": self.internet_syncs,
            "metadata_evictions": self.metadata_evictions,
            "checksum_rejections": self.checksum_rejections,
        }


#: Supported eviction policies for a bounded metadata store.
EVICTION_POLICIES = ("popularity", "fifo", "lru", "utility")


class MetadataStore:
    """Bounded metadata store with pluggable eviction.

    The abundance of metadata is the point of the discovery scheme, but
    storage is finite. When full, a victim is chosen by ``policy``:

    * ``"popularity"`` (default, the paper's spirit): evict the record
      with the lowest ``(popularity, uri)`` key;
    * ``"fifo"``: evict the oldest-inserted record;
    * ``"lru"``: evict the least recently ``get``-accessed record;
    * ``"utility"``: evict the lowest ``popularity × remaining TTL`` —
      a record's expected future usefulness. Motivated by the storage
      ablation (the ``storage-*`` claim rows): pure popularity eviction
      keeps old popular records that are about to expire anyway, which is
      why plain FIFO can beat it; utility combines both signals.

    Records matching one of the owner's *protected* URIs (metadata for
    files the node itself wants) are never evicted while an
    unprotected victim exists.

    Stores stay small (tens of records on the paper traces), so keyword
    matching is a scan of :meth:`records`. ``mutations`` counts every
    content change and lets callers key derived caches off store state
    without subscribing to individual operations.

    Acceptance looks a URI up once with :meth:`peek`: the very object
    stored again is a duplicate (an Internet sync tests this identity
    itself, before acceptance), and only a new URI in a :attr:`full`
    store goes through :meth:`add`'s eviction; anything else is a
    :meth:`put`. :meth:`uri_view` serves membership tests, such as the
    push's exclusion and expiry's piece drop, without copying the keys.
    """

    def __init__(self, capacity: Optional[int] = None, policy: str = "popularity") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}")
        self._capacity = capacity
        self._policy = policy
        #: Records evicted (not expired) over the store's lifetime.
        self.evictions = 0
        #: Content mutations (adds, evictions, expiries, clears) over
        #: the store's lifetime; cache-key material for derived views.
        self.mutations = 0
        #: Insertion-ordered; LRU moves entries to the end on access.
        self._records: Dict[Uri, Metadata] = {}

    def __contains__(self, uri: Uri) -> bool:
        return uri in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, uri: Uri) -> Optional[Metadata]:
        record = self._records.get(uri)
        if record is not None and self._policy == "lru":
            self._records[uri] = self._records.pop(uri)  # touch
        return record

    def peek(self, uri: Uri) -> Optional[Metadata]:
        """Look up a record *without* touching LRU recency.

        Bookkeeping lookups (candidate builders, wanted-set upkeep)
        must use this instead of :meth:`get`: they are bookkeeping, not
        user accesses, and must not perturb the eviction order.
        """
        return self._records.get(uri)

    @property
    def uris(self) -> FrozenSet[Uri]:
        return frozenset(self._records)

    def uri_view(self) -> KeysView[Uri]:
        """The stored URIs as a live view, for membership tests without a
        copy. It follows later changes to the store."""
        return self._records.keys()

    def records(self) -> List[Metadata]:
        """All records, unordered."""
        return list(self._records.values())

    @property
    def full(self) -> bool:
        """Whether the store is bounded and at capacity: inserting a new
        URI evicts a record."""
        return self._capacity is not None and len(self._records) >= self._capacity

    def may_evict_on_insert(self, uri: Uri) -> bool:
        """Whether inserting ``uri`` could trigger an eviction."""
        return self.full and uri not in self._records

    def add(
        self,
        metadata: Metadata,
        protected: FrozenSet[Uri] = frozenset(),
        now: Optional[float] = None,
    ) -> bool:
        """Insert a record; return True if it was new.

        Re-inserting an existing URI refreshes the record (popularity
        updates) but reports it as a duplicate. ``now`` feeds the
        utility policy's remaining-TTL computation (defaults to the
        record's creation time when absent).
        """
        new = metadata.uri not in self._records
        self._records[metadata.uri] = metadata
        self.mutations += 1
        if new and self._capacity is not None and len(self._records) > self._capacity:
            at = now if now is not None else metadata.created_at
            self._evict_one(protected | {metadata.uri}, at)
        return new

    def put(self, metadata: Metadata) -> None:
        """Insert or refresh a record the caller knows causes no eviction:
        its URI is stored already or the store is not :attr:`full`."""
        self._records[metadata.uri] = metadata
        self.mutations += 1

    def _evict_one(self, protected: FrozenSet[Uri], now: float) -> None:
        victims = [md for uri, md in self._records.items() if uri not in protected]
        if not victims:
            # Everything is protected; fall back to evicting globally.
            victims = list(self._records.values())
        if self._policy == "popularity":
            victim = min(victims, key=lambda md: (md.popularity, md.uri))
        elif self._policy == "utility":
            victim = min(
                victims,
                key=lambda md: (
                    md.popularity * max(0.0, md.expires_at - now),
                    md.uri,
                ),
            )
        else:
            # fifo: oldest inserted; lru: least recently touched — both
            # are the earliest entry in the ordered dict.
            victim = victims[0]
        del self._records[victim.uri]
        self.evictions += 1
        self.mutations += 1

    def drop_expired(self, now: float) -> List[Uri]:
        """Remove expired records; return removed URIs."""
        dead = [uri for uri, md in self._records.items() if now >= md.expires_at]
        for uri in dead:
            del self._records[uri]
        if dead:
            self.mutations += 1
        return dead

    def clear(self) -> None:
        """Drop every record (node crash with storage loss).

        Lifetime counters (``evictions``) survive — they describe the
        node's history, not its current contents.
        """
        self._records.clear()
        self.mutations += 1


class NodeState:
    """The full protocol state of one DTN node."""

    def __init__(
        self,
        node: NodeId,
        registry: PublisherRegistry,
        internet_access: bool = False,
        metadata_capacity: Optional[int] = None,
        metadata_policy: str = "popularity",
        verify_signatures: bool = True,
        selection_policy: str = "all",
        strategy: Optional[Strategy] = None,
        credit_policy: str = "plain",
    ) -> None:
        if selection_policy not in ("all", "best"):
            raise ValueError(f"unknown selection policy {selection_policy!r}")
        self.node = node
        self.internet_access = internet_access
        self.registry = registry
        self.verify_signatures = verify_signatures
        self.selection_policy = selection_policy
        #: Behavior profile consulted by the protocol engine; honest
        #: unless the node is selfish (``free_rider``) or an
        #: :class:`~repro.core.strategies.AdversaryPlan` assigned it
        #: another strategy.
        self.strategy = HONEST if strategy is None else strategy
        self.metadata = MetadataStore(metadata_capacity, metadata_policy)
        self.pieces = PieceStore()
        self.credits = make_ledger(credit_policy, node)
        #: URIs whose metadata failed verification in this node's own
        #: hands. First-hand evidence of forgery: under the reputation
        #: credit policy the engine stops targeting this node with them
        #: (see ``MobileBitTorrent._candidate_pool``), so an evergreen
        #: fake stops taxing the clique's budget after one exposure.
        #: Like the credit ledger, this judgment survives :meth:`wipe`.
        self.rejected_uris: Set[Uri] = set()
        self.stats = NodeStats()
        self._own_queries: List[Query] = []
        #: Queries of frequent contacts, stored under full MBT.
        self._foreign_queries: Dict[NodeId, List[Query]] = {}
        self.frequent_contacts: Set[NodeId] = set()
        #: (peer -> last hello time), from received hellos. Filled by the
        #: wire runtime's devices; the simulator does not fill it.
        self.neighbor_last_heard: Dict[NodeId, float] = {}
        #: Peer download requests heard in hellos: uri -> (last heard
        #: time, number of distinct peers heard requesting it). Access
        #: nodes use this to proxy-download files for the DTN (§III-A:
        #: nodes without Internet access "download files with the help
        #: of other nodes in the hybrid DTN"). The simulator fills it for
        #: access nodes only, the sole readers.
        self._peer_requests: Dict[Uri, Tuple[float, Set[NodeId]]] = {}
        #: The wanted set (see :meth:`wanted_uris`) holds over the window
        #: ``[start, until)`` while ``_wanted_stamp`` equals the store's
        #: ``mutations``; ``_wanted_tokens`` are the own queries live in it.
        self._wanted: FrozenSet[Uri] = frozenset()
        self._wanted_window: Tuple[float, float] = (0.0, 0.0)
        self._wanted_tokens: Tuple[FrozenSet[str], ...] = ()
        self._wanted_stamp = -1
        #: Bumped when the carried queries change in a way the live-query
        #: memo cannot patch (a stored query of a peer that is not the
        #: last one stored, a wipe). The live own and foreign queries and
        #: their token tuples (see :meth:`_refresh_live`) hold over the
        #: window ``[start, until)`` while ``_live_version`` equals it.
        self._query_version = 0
        self._live_version = -1
        self._live_window: Tuple[float, float] = (0.0, 0.0)
        self._live_own: List[Query] = []
        self._live_foreign: List[Query] = []
        self._live_own_tokens: Tuple[FrozenSet[str], ...] = ()
        self._live_foreign_tokens: Tuple[FrozenSet[str], ...] = ()
        #: Deterministic cache instrumentation, aggregated into the
        #: run-level ``perf.*`` counters by the simulation runner.
        self.wanted_cache_hits = 0
        self.wanted_cache_misses = 0
        self.query_cache_hits = 0
        self.query_cache_misses = 0

    # -- queries ------------------------------------------------------------------

    def add_own_query(self, query: Query) -> None:
        if query.node != self.node:
            raise ValueError(f"query of node {query.node} given to node {self.node}")
        self._own_queries.append(query)
        self._wanted_stamp = -1
        self._fold_live(query, own=True)

    def _fold_live(self, query: Query, own: bool) -> None:
        """Fold ``query``, just appended last to the own or the stored
        queries, into the live-query memo (see :meth:`_refresh_live`)."""
        if self._live_version != self._query_version:
            return
        start, until = self._live_window
        if start < query.created_at:
            self._live_window = (start, min(until, query.created_at))
        elif start < query.expires_at:
            self._live_window = (start, min(until, query.expires_at))
            if own:
                self._live_own.append(query)
                self._live_own_tokens += (query.tokens,)
            else:
                self._live_foreign.append(query)
                self._live_foreign_tokens += (query.tokens,)

    def _refresh_live(self, now: float) -> None:
        """Bring the live-query memo up to ``now``.

        The memo holds until the query population changes or the
        earliest pending start or live expiry among the node's own and
        stored queries, whichever comes first.
        """
        start, until = self._live_window
        if self._live_version == self._query_version and start <= now < until:
            self.query_cache_hits += 1
            return
        self.query_cache_misses += 1
        until = math.inf
        own: List[Query] = []
        for query in self._own_queries:
            if now < query.created_at:
                until = min(until, query.created_at)
            elif now < query.expires_at:
                until = min(until, query.expires_at)
                own.append(query)
        foreign: List[Query] = []
        # detlint: ignore[DET002] -- insertion-ordered dict: peers are added
        # in deterministic contact-processing order, and reordering here
        # would change the advertised query order (and thus the results).
        for queries in self._foreign_queries.values():
            for query in queries:
                if now < query.created_at:
                    until = min(until, query.created_at)
                elif now < query.expires_at:
                    until = min(until, query.expires_at)
                    foreign.append(query)
        self._live_own = own
        self._live_foreign = foreign
        self._live_own_tokens = tuple(query.tokens for query in own)
        self._live_foreign_tokens = tuple(query.tokens for query in foreign)
        self._live_window = (now, until)
        self._live_version = self._query_version

    def own_queries(self, now: float) -> List[Query]:
        """The node's live standing queries.

        Returns a fresh list; callers may extend it.
        """
        self._refresh_live(now)
        return list(self._live_own)

    def store_foreign_queries(self, peer: NodeId, queries: Iterable[Query]) -> None:
        """Remember a frequent contact's queries (full MBT only)."""
        stored = self._foreign_queries.setdefault(peer, [])
        # The memo lists foreign queries peer by peer; a query appended to
        # the last peer's list is also last in it.
        last = next(reversed(self._foreign_queries)) == peer
        known = {(q.target_uri, q.tokens) for q in stored}
        for query in queries:
            key = (query.target_uri, query.tokens)
            if key not in known:
                stored.append(query)
                known.add(key)
                if last:
                    self._fold_live(query, own=False)
                else:
                    self._query_version += 1

    def foreign_queries(self, now: float) -> List[Query]:
        """Live stored queries of frequent contacts (a fresh list)."""
        self._refresh_live(now)
        return list(self._live_foreign)

    def carried_queries(self, now: float, include_foreign: bool) -> List[Query]:
        """Queries the node advertises and pulls for.

        Under full MBT this is own + stored frequent-contact queries;
        under MBT-Q (and MBT-QM) it is the node's own queries only.
        """
        queries = self.own_queries(now)
        if include_foreign:
            queries.extend(self.foreign_queries(now))
        return queries

    def own_query_tokens(self, now: float) -> Tuple[FrozenSet[str], ...]:
        """Token sets of the node's own live queries."""
        self._refresh_live(now)
        return self._live_own_tokens

    def foreign_query_tokens(self, now: float) -> Tuple[FrozenSet[str], ...]:
        """Token sets carried for frequent contacts."""
        self._refresh_live(now)
        return self._live_foreign_tokens

    # -- wanted files ---------------------------------------------------------------

    def wanted_uris(self, now: float) -> FrozenSet[Uri]:
        """URIs the node is downloading (selected metadata, incomplete).

        Which matching metadata the user "selects" is governed by
        ``selection_policy``:

        * ``"all"`` (default, the evaluation's simplification): every
          stored record matching a live query is selected;
        * ``"best"`` (§III-B's manual selection: "the user may select
          one of the metadata"): per query, only the best-ranked match
          — verified publishers first, then popularity — is selected.
          Under pollution, this is what shields users from keyword-
          identical fakes.

        A URI stays wanted until all its pieces are stored.

        The set is kept incrementally. A computed set holds until a live
        own query expires, a pending one starts or a live matching
        record expires. Meanwhile a new matching record under ``"all"``
        joins it and a completed file leaves it; any other change to
        the store or the own queries forces a recompute.
        """
        start, until = self._wanted_window
        if self._wanted_stamp == self.metadata.mutations and start <= now < until:
            self.wanted_cache_hits += 1
            return self._wanted
        self.wanted_cache_misses += 1
        until = math.inf
        live_tokens: List[FrozenSet[str]] = []
        for query in self._own_queries:
            if now < query.created_at:
                until = min(until, query.created_at)
            elif now < query.expires_at:
                until = min(until, query.expires_at)
                live_tokens.append(query.tokens)
        tokens = tuple(live_tokens)
        is_complete = self.pieces.is_complete
        wanted: Set[Uri] = set()
        # One pass over the store, testing each live record against the
        # live query tokens.
        if self.selection_policy == "all":
            for record in self.metadata.records():
                expires_at = record.expires_at
                if now >= expires_at:
                    continue
                token_set = record.token_set
                for query_tokens in tokens:
                    if query_tokens <= token_set:
                        until = min(until, expires_at)
                        if not is_complete(record.uri, record.num_pieces):
                            wanted.add(record.uri)
                        break
        else:
            # Each query keeps its best match so far. Keys end in the
            # unique URI, so the order records come in cannot change
            # which match wins.
            best: List[Optional[Tuple[Tuple[bool, float, Uri], Metadata]]] = [None] * len(tokens)
            for record in self.metadata.records():
                expires_at = record.expires_at
                if now >= expires_at:
                    continue
                token_set = record.token_set
                key = None
                for i, query_tokens in enumerate(tokens):
                    if query_tokens <= token_set:
                        if key is None:
                            key = self._match_key(record)
                            until = min(until, expires_at)
                        kept = best[i]
                        if kept is None or key < kept[0]:
                            best[i] = (key, record)
            for kept in best:
                if kept is not None and not is_complete(kept[1].uri, kept[1].num_pieces):
                    wanted.add(kept[1].uri)
        self._wanted = frozenset(wanted)
        self._wanted_window = (now, until)
        self._wanted_tokens = tokens
        self._wanted_stamp = self.metadata.mutations
        return self._wanted

    def _patch_wanted(self, old: Optional[Metadata], record: Metadata, now: float) -> bool:
        """Fold a just-stored ``record`` (replacing ``old``) into the wanted
        set; False if the set must be recomputed instead."""
        start, until = self._wanted_window
        if not start <= now < until:
            return False
        if old is not None:
            if (old.token_set, old.expires_at, old.num_pieces) != (
                record.token_set, record.expires_at, record.num_pieces
            ):
                return False
            if self.selection_policy == "all":
                return True  # a refresh selects nothing new
        if not any(map(record.token_set.issuperset, self._wanted_tokens)):
            return True
        if self.selection_policy == "best":
            # The new or re-ranked record may change which match is best.
            return False
        if not self.pieces.is_complete(record.uri, record.num_pieces):
            self._wanted = self._wanted | {record.uri}
            self._wanted_window = (start, min(until, record.expires_at))
        return True

    def _drop_if_complete(self, uri: Uri) -> None:
        """Take ``uri`` out of the wanted set once its file is complete."""
        record = self.metadata.peek(uri) if uri in self._wanted else None
        if record is not None and self.pieces.is_complete(uri, record.num_pieces):
            self._wanted = self._wanted - {uri}

    def _match_key(self, record: Metadata) -> Tuple[bool, float, Uri]:
        """Rank of ``record`` among query matches; a careful user picks the
        lowest.

        Authenticated publishers outrank unverifiable ones, popularity
        breaks ties, URI makes the choice deterministic.
        """
        return (not verify_metadata(record, self.registry), -record.popularity, record.uri)

    def protected_uris(self, now: float) -> FrozenSet[Uri]:
        """Metadata URIs shielded from eviction (they match own queries)."""
        tokens = self.own_query_tokens(now)
        return frozenset(
            md.uri for md in self.metadata.records() if any(map(md.token_set.issuperset, tokens))
        )

    # -- receiving ------------------------------------------------------------------

    def accept_metadata(self, metadata: Metadata, now: float) -> bool:
        """Verify and store a received metadata record.

        Returns True if the record was new and accepted. Records from
        unknown publishers or with bad signatures are rejected
        (fake-publisher defence). The signature and liveness checks run
        first, on every receipt. A record that then turns out to be the
        very object already stored counts as a duplicate and leaves the
        store untouched. The checks must come first: a pirate stores
        its own fakes unverified, and receiving one again must still be
        rejected.
        """
        if self.verify_signatures and not verify_metadata(metadata, self.registry):
            self.stats.metadata_rejected_auth += 1
            self.rejected_uris.add(metadata.uri)
            return False
        if now >= metadata.expires_at:
            return False
        store = self.metadata
        old = store.peek(metadata.uri)
        if old is metadata:
            self.stats.metadata_duplicates += 1
            return False
        if old is None and store.full:
            # Only a new URI in a full bounded store evicts; the wanted
            # set is then recomputed, not patched.
            store.add(metadata, protected=self.protected_uris(now), now=now)
            self.stats.metadata_evictions += 1
            self.stats.metadata_received += 1
            return True
        in_step = self._wanted_stamp == store.mutations
        store.put(metadata)
        if old is None:
            self.stats.metadata_received += 1
        else:
            self.stats.metadata_duplicates += 1
        if in_step and self._patch_wanted(old, metadata, now):
            self._wanted_stamp = store.mutations
        return old is None

    def accept_piece(self, uri: Uri, index: int, payload: bytes, checksum: str) -> bool:
        """Verify and store a received piece; True if it was new."""
        try:
            new = self.pieces.add(uri, index, payload, checksum)
        except IntegrityError:
            self.stats.checksum_rejections += 1
            raise
        if new:
            self.stats.pieces_received += 1
            self._drop_if_complete(uri)
        else:
            self.stats.piece_duplicates += 1
        return new

    # -- peer requests ---------------------------------------------------------------

    def remember_peer_requests(self, requests: Mapping[Uri, Set[NodeId]], now: float) -> None:
        """Store the downloading URIs clique members advertised in hellos.

        ``requests`` maps each URI to its advertisers; the node skips itself.
        """
        for uri, peers in requests.items():
            if self.node in peers and len(peers) == 1:
                continue
            last, requesters = self._peer_requests.get(uri, (now, set()))
            requesters |= peers
            requesters.discard(self.node)
            self._peer_requests[uri] = (max(last, now), requesters)

    def top_peer_requests(self, now: float, window: float) -> List[Uri]:
        """Recently heard peer requests, most-demanded first.

        Requests older than ``window`` seconds are pruned. Order:
        number of distinct requesters descending, recency descending,
        URI as the deterministic tie-break.
        """
        stale = [
            uri for uri, (last, __) in self._peer_requests.items() if now - last > window
        ]
        for uri in stale:
            del self._peer_requests[uri]
        return sorted(
            self._peer_requests,
            key=lambda uri: (
                -len(self._peer_requests[uri][1]),
                -self._peer_requests[uri][0],
                uri,
            ),
        )

    def receive_whole_file(self, uri: Uri, num_pieces: int) -> None:
        """Store every piece of a file at once (Internet download)."""
        self.pieces.add_whole_file(uri, num_pieces)
        self._drop_if_complete(uri)

    # -- housekeeping -----------------------------------------------------------------

    def wipe(self) -> None:
        """Forget everything learned from the network (crash with storage loss).

        Metadata and piece stores, stored foreign queries, heard peer
        requests and the neighbor table are dropped. The node's own
        standing queries survive (the user re-enters them on reboot),
        as do the credit ledger, the frequent-contact configuration and
        the lifetime ``stats`` counters.
        """
        self.metadata.clear()
        self.pieces.clear()
        self._foreign_queries.clear()
        self._peer_requests.clear()
        self.neighbor_last_heard.clear()
        self._wanted_stamp = -1
        self._query_version += 1

    def expire(self, now: float) -> None:
        """Drop expired metadata, queries and orphaned pieces.

        Queries whose start still lies ahead are kept.
        """
        self._wanted_stamp = -1
        # A query expired by ``now`` is in no live-query memo that holds
        # at ``now`` or later, so the memo survives, from ``now`` on.
        start, until = self._live_window
        self._live_window = (max(start, now), until)
        self.metadata.drop_expired(now)
        self._own_queries = [q for q in self._own_queries if now < q.expires_at]
        for peer in list(self._foreign_queries):
            live = [q for q in self._foreign_queries[peer] if now < q.expires_at]
            if live:
                self._foreign_queries[peer] = live
            else:
                del self._foreign_queries[peer]
        self.pieces.drop_expired(self.metadata.uri_view())

    def heard_recently(self, now: float, window: float) -> FrozenSet[NodeId]:
        """Neighbors heard within ``window`` seconds."""
        return frozenset(
            peer
            for peer, t in self.neighbor_last_heard.items()
            if now - t <= window
        )

    def __repr__(self) -> str:
        access = "inet" if self.internet_access else "dtn"
        return (
            f"NodeState(node={self.node}, {access}, "
            f"meta={len(self.metadata)}, pieces={self.pieces.total_pieces()})"
        )
