"""The MBT protocol engine: contact processing and Internet syncs.

Ties together discovery (§IV) and download (§V) for the three
evaluated protocol variants (§VI-A):

* **MBT** — nodes store and advertise the queries of their frequent
  contacting nodes, distribute metadata, and distribute file pieces.
* **MBT-Q** — no query distribution: nodes advertise only their own
  queries (they "can only pull metadata from other nodes").
* **MBT-QM** — no query and no independent metadata distribution: the
  contact has no metadata phase, and metadata spread only attached to
  file pieces (the prior content-distribution model the paper compares
  against).

Both contact phases, discovery and download, run through one
scheduler (``MobileBitTorrent._schedule``) with one of two modes; the
phase supplies only its candidate builder, its serving members, its
transmit step and its policy module, whose rank keys define the order:

* ``COORDINATOR`` (cooperative, §IV-A/§V-A): the coordinator picks the
  globally best transmission each slot by ``cooperative_rank_key``.
* ``CYCLIC`` (selfish-tolerant, §IV-B/§V-B): members transmit in the
  agreed-upon seeded cyclic order; each sender picks its own best item
  by the credit-weighted ``tit_for_tat_rank_key``. Members whose
  strategy does not serve the phase skip their turn.

Candidates are built lazily, in an order equal to a full sort by the
rank keys. Both keys put every requested item before every
un-requested one (credit weights are never negative) and rank the
un-requested ones by popularity, URI and piece index. So a phase
builds its requested candidates up front and streams the rest from
the clique view's popularity order, a file at a time, only as far as
its budget reaches (see ``_CandidatePool``).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import asdict, dataclass, field
from types import ModuleType
from typing import Callable, Dict, FrozenSet, Generic, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar

from repro.catalog.adversary import PIRATE_URI_PREFIX
from repro.catalog.files import IntegrityError, piece_payload
from repro.catalog.generator import DailyBatch
from repro.catalog.metadata import Metadata
from repro.catalog.server import FileServer, MetadataServer
from repro.core import discovery, download
from repro.core.cliqueview import CliqueView
from repro.core.coordinator import cyclic_order
from repro.core.node import NodeState
from repro.core.strategies import AdversaryState
from repro.faults import FaultInjector, corrupt_payload
from repro.net.medium import BroadcastMedium, ContactBudget, PairwiseMedium, TransmissionMedium
from repro.perf import PerfRecorder
from repro.sim.metrics import MetricsCollector
from repro.traces.base import Contact
from repro.types import NodeId, Uri


#: Internet-sync limits: metadata records pulled per query, records
#: pushed per sync, and popular files downloaded per sync for seeding.
PULL_LIMIT = 5
PUSH_LIMIT = 10
POPULAR_FILE_DOWNLOADS = 2
#: Files an access node proxy-downloads per sync on behalf of the DTN
#: peers whose requests it heard.
PROXY_DOWNLOADS = 5
#: Share of a contact's byte volume reserved for the discovery phase
#: when budgets derive from the contact duration.
METADATA_SHARE = 0.2
#: Credit a receiver must *exceed* with the sender to be unchoked under
#: encrypted choking. Strict 0.0 admits any peer that ever contributed
#: anything (one metadata transfer suffices) and blocks exactly the
#: pure free-riders.
CHOKE_CREDIT_THRESHOLD = 0.0


class ProtocolVariant(enum.Enum):
    """The three protocols compared in §VI."""

    MBT = "mbt"
    MBT_Q = "mbt-q"
    MBT_QM = "mbt-qm"

    @property
    def distributes_queries(self) -> bool:
        return self is ProtocolVariant.MBT

    @property
    def distributes_metadata(self) -> bool:
        return self is not ProtocolVariant.MBT_QM


class SchedulingMode(enum.Enum):
    """Who decides the broadcast order inside a clique (§V)."""

    COORDINATOR = "coordinator"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class ProtocolConfig:
    """Static protocol parameters shared by every node."""

    variant: ProtocolVariant = ProtocolVariant.MBT
    budget: ContactBudget = field(default_factory=lambda: ContactBudget(5, 5))
    tit_for_tat: bool = False
    scheduling: Optional[SchedulingMode] = None
    broadcast: bool = True
    #: Derive per-contact budgets from contact duration and channel
    #: bandwidth instead of the paper's fixed counts. Short contacts
    #: then carry discovery only (§V: "file discovery uses the starting
    #: period of each connection") while long contacts move many pieces.
    duration_budgets: bool = False
    #: The paper's future-work extension (§IV-B footnote: "Peers can
    #: still be choked if encryption is used"): piece payloads are
    #: encrypted per transmission and the key is released only to
    #: *unchoked* receivers — peers that have earned credit with the
    #: sender. Discovery stays open (metadata are the advertisement
    #: channel), which is also the bootstrap: sending useful metadata
    #: earns the credit that unchokes the piece channel. Applies under
    #: either scheduling mode.
    encrypted_choking: bool = False
    #: How long heard peer requests are remembered (seconds).
    request_memory: float = 3 * 86400.0

    def effective_scheduling(self) -> SchedulingMode:
        """Default: coordinator when altruistic, cyclic under TFT (§V)."""
        if self.scheduling is not None:
            return self.scheduling
        return SchedulingMode.CYCLIC if self.tit_for_tat else SchedulingMode.COORDINATOR

    def medium(self) -> TransmissionMedium:
        return BroadcastMedium() if self.broadcast else PairwiseMedium()


@dataclass
class EngineCounters:
    """Aggregate protocol-engine activity counters for one run.

    Where the per-node :class:`~repro.core.node.NodeStats` answer "what
    did node i do", these answer "what did the engine do" — the
    denominators every performance investigation starts from.
    """

    #: Trace contacts handled by :meth:`MobileBitTorrent.handle_contact`.
    contacts_processed: int = 0
    #: Same-instant contact batches dispatched via
    #: :meth:`MobileBitTorrent.handle_contacts` (<= contacts).
    contact_batches: int = 0
    #: Communication cliques processed (one per contact that survives
    #: faults and churn).
    cliques_processed: int = 0
    #: Hello beacons exchanged (one per node per clique).
    hello_exchanges: int = 0
    #: Successful metadata broadcasts/unicasts.
    metadata_transmissions: int = 0
    #: Successful piece broadcasts/unicasts.
    piece_transmissions: int = 0
    #: Receivers denied a piece key by encrypted choking (§IV-B).
    choked_sends: int = 0
    #: Internet sessions performed by access nodes.
    internet_syncs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


#: Either scheduled candidate form; the shared scheduler only touches
#: ``holders``, ``missing``, ``requested`` and ``stamp`` and hands the
#: candidate to the phase's rank keys.
_C = TypeVar("_C", discovery.ScheduledMetadata, download.ScheduledPiece)


class _CandidatePool(Generic[_C]):
    """One phase's candidates, built on demand in rank order.

    The *head* is built at phase start: the candidates of every URI
    some member requests. The *tail* is every other URI of the clique.
    Its candidates are all un-requested, so under both rank keys they
    follow every requested candidate, ordered by popularity, URI and
    piece index; the scheduler builds a tail URI only when it reaches
    it in the view's popularity order. A built candidate belongs to
    the head while it has requesters: one whose requesters all received
    it falls back into the tail at its popularity position.

    ``builder`` is the phase's :class:`~repro.core.discovery.
    MetadataBuilder` or :class:`~repro.core.download.PieceBuilder`;
    ``prepare`` applies the engine's hiding and screening to each
    candidate as it is built.
    """

    def __init__(self, builder, prepare: Optional[Callable[[_C], None]]) -> None:
        self._builder = builder
        self._prepare = prepare
        self._view: CliqueView = builder.view
        self._cursor = 0
        #: Built candidates per URI, by piece index.
        self.by_uri: Dict[Uri, List[_C]] = {}
        #: Built candidates that some member requests (an ordered set).
        self.head: Dict[_C, None] = {}
        #: Candidates built so far.
        self.built = 0
        #: Called with every candidate whose requesters changed.
        self.on_change: Optional[Callable[[_C], None]] = None
        for uri in builder.head_uris:
            self.of(uri)

    @property
    def head_uris(self) -> List[Uri]:
        return self._builder.head_uris

    def of(self, uri: Uri) -> List[_C]:
        """The candidates of ``uri``, building them on first use."""
        cands = self.by_uri.get(uri)
        if cands is None:
            cands = self.by_uri[uri] = self._builder.build(uri)
            self.built += len(cands)
            for cand in cands:
                if self._prepare is not None:
                    self._prepare(cand)
                if cand.requested:
                    self.head[cand] = None
        return cands

    def has_candidates(self) -> bool:
        """Whether the phase has any candidate, built or not."""
        return self.built > 0 or self._builder.has_candidates()

    def changed(self, cand: _C) -> None:
        """Re-file ``cand`` after a transmission changed its requesters."""
        if cand.requested:
            self.head[cand] = None
        else:
            self.head.pop(cand, None)
        if self.on_change is not None:
            self.on_change(cand)

    def next_tail_uri(self, before: Optional[_C]) -> Optional[Uri]:
        """The next unbuilt URI in popularity order, if it ranks before
        the un-requested candidate ``before`` (or ``before`` is None)."""
        order = self._view.popularity_order()
        cursor = self._cursor
        while cursor < len(order) and order[cursor] in self.by_uri:
            cursor += 1
        self._cursor = cursor
        if cursor == len(order):
            return None
        uri = order[cursor]
        if before is not None:
            record = before.metadata
            popularity = self._view.record_by_uri[uri].popularity
            if (-record.popularity, record.uri) < (-popularity, uri):
                return None
        return uri

    def tail(self, sender: NodeId) -> Iterator[_C]:
        """Un-requested candidates ``sender`` can send, in rank order."""
        may_send = self._builder.may_send
        for uri in self._view.popularity_order():
            cands = self.by_uri.get(uri)
            if cands is None:
                if not may_send(uri, sender):
                    continue
                cands = self.of(uri)
            for cand in cands:
                if sender in cand.holders and cand.missing and not cand.requested:
                    yield cand


class MobileBitTorrent:
    """Protocol engine driving every node's discovery and download."""

    def __init__(
        self,
        states: Mapping[NodeId, NodeState],
        metadata_server: MetadataServer,
        file_server: FileServer,
        metrics: MetricsCollector,
        config: ProtocolConfig,
        faults: Optional[FaultInjector] = None,
        perf: Optional[PerfRecorder] = None,
        adversary: Optional[AdversaryState] = None,
    ) -> None:
        self._states = dict(states)
        self._metadata_server = metadata_server
        self._file_server = file_server
        self._metrics = metrics
        self._config = config
        self._medium = config.medium()
        self._faults = faults
        #: Active adversary population (strategy assignment + counters);
        #: None on the honest path — every strategy hook below then
        #: reduces to the node's default honest profile.
        self._adversary = adversary
        #: Nodes currently crashed by churn injection.
        self._down: Set[NodeId] = set()
        self.counters = EngineCounters()
        #: ``perf.*`` instrumentation; counters are always collected,
        #: wall-clock timers only when the recorder profiles.
        self.perf = perf if perf is not None else PerfRecorder()

    @property
    def states(self) -> Mapping[NodeId, NodeState]:
        return self._states

    @property
    def config(self) -> ProtocolConfig:
        return self._config

    # ------------------------------------------------------------------ churn

    @property
    def down_nodes(self) -> FrozenSet[NodeId]:
        """Nodes currently crashed by churn injection."""
        return frozenset(self._down)

    def crash_node(self, node: NodeId, wipe: bool) -> None:
        """Take a node down; with ``wipe``, its learned state is lost.

        A down node takes part in no contact and performs no Internet
        sync until :meth:`revive_node`. Crashing an already-down node
        is a no-op (overlapping churn draws are filtered upstream, but
        callers need not rely on that).
        """
        if node in self._down:
            return
        self._down.add(node)
        if wipe:
            self._states[node].wipe()
        if self._faults is not None:
            self._faults.count("crashes")

    def revive_node(self, node: NodeId) -> None:
        """Bring a crashed node back up (reboot after downtime)."""
        if node not in self._down:
            return
        self._down.discard(node)
        if self._faults is not None:
            self._faults.count("rebirths")

    # ------------------------------------------------------------------ catalog

    def on_daily_batch(self, batch: DailyBatch, now: float) -> None:
        """Publish a day's files and hand out the generated queries."""
        for descriptor in batch.descriptors:
            self._file_server.publish(descriptor)
        for record in batch.metadata:
            self._metadata_server.publish(record)
        for query in batch.queries:
            state = self._states[query.node]
            state.add_own_query(query)
            self._metrics.register_query(query, access_node=state.internet_access)

    def expire_all(self, now: float) -> None:
        """Drop expired records everywhere (servers and nodes)."""
        self._metadata_server.expire(now)
        self._file_server.expire(now)
        for node in sorted(self._states):
            self._states[node].expire(now)

    # ------------------------------------------------------------------ internet

    def internet_sync(self, node: NodeId, now: float) -> None:
        """One Internet session of an access node (pull, download, push).

        Non-access nodes are silently ignored so callers can iterate
        over the whole population. Every record the server hands over
        goes through :meth:`_deliver`.
        """
        state = self._states[node]
        if node in self._down or not state.internet_access:
            return
        state.stats.internet_syncs += 1
        self.counters.internet_syncs += 1
        server = self._metadata_server

        # Pull: metadata matching own queries (and foreign ones under MBT).
        for query in state.own_queries(now):
            server.record_request(query.target_uri, node, now)
            for record in server.search(query.tokens, now, limit=PULL_LIMIT):
                self._deliver(state, record, now)
        if self._config.variant.distributes_queries:
            for query in state.foreign_queries(now):
                for record in server.search(query.tokens, now, limit=PULL_LIMIT):
                    self._deliver(state, record, now)

        # Download: access nodes have enough bandwidth for what they need.
        # Sorted: each download touches LRU recency, so raw set-iteration
        # order (which varies with the interpreter's string-hash seed)
        # would leak into results.
        for uri in sorted(state.wanted_uris(now)):
            self._download_from_internet(state, uri, now)

        # Push: the server continues with popular metadata (§IV), except
        # under MBT-QM where independent metadata distribution is off.
        # It skips what the node holds, so every pushed record is new.
        if self._config.variant.distributes_metadata:
            for record in server.top_popular(
                now, PUSH_LIMIT, exclude=state.metadata.uri_view()
            ):
                self._accept_metadata(state, record, now)

        # Cooperative proxy downloads: fetch the files DTN peers were
        # heard requesting, most-demanded first. This is the hybrid-DTN
        # payoff — nodes without Internet access get their files
        # "with the help of other nodes" (§III-A). Requests only exist
        # where discovery delivered metadata, so MBT-QM barely uses it.
        proxied = 0
        for uri in state.top_peer_requests(now, self._config.request_memory):
            if proxied >= PROXY_DOWNLOADS:
                break
            record = server.get(uri)
            if record is None or not record.is_live(now):
                continue
            if state.pieces.is_complete(uri, record.num_pieces):
                continue
            self._deliver(state, record, now)
            self._download_from_internet(state, uri, now)
            proxied += 1

        # Under full MBT, also fetch the files matching the queries
        # carried for frequent contacts (the node collects on their
        # behalf, §IV).
        if self._config.variant.distributes_queries and proxied < PROXY_DOWNLOADS:
            for query in state.foreign_queries(now):
                if proxied >= PROXY_DOWNLOADS:
                    break
                for record in server.search(query.tokens, now, limit=1):
                    if state.pieces.is_complete(record.uri, record.num_pieces):
                        continue
                    self._deliver(state, record, now)
                    self._download_from_internet(state, record.uri, now)
                    proxied += 1

        # Seed the DTN: grab a few globally popular files as well.
        seeded = 0
        for record in server.top_popular(now, PUSH_LIMIT):
            if seeded >= POPULAR_FILE_DOWNLOADS:
                break
            if not state.pieces.is_complete(record.uri, record.num_pieces):
                self._deliver(state, record, now)
                self._download_from_internet(state, record.uri, now)
                seeded += 1

    def _download_from_internet(self, state: NodeState, uri: Uri, now: float) -> None:
        record = state.metadata.get(uri)
        if record is None or uri not in self._file_server:
            return
        state.receive_whole_file(uri, record.num_pieces)
        state.stats.files_completed += 1
        self._metrics.on_file_complete(state.node, uri, now)

    def _deliver(self, state: NodeState, record: Metadata, now: float) -> None:
        """Hand a live server record to an access node.

        The server holds only records its publishers signed, so a node
        that stores this very object could only count a duplicate in
        :meth:`NodeState.accept_metadata`: it is counted here, without
        the signature and liveness checks. Anything else, including an
        equal but distinct copy (a popularity refresh), is accepted in
        full.
        """
        if state.metadata.peek(record.uri) is record:
            state.stats.metadata_duplicates += 1
        else:
            self._accept_metadata(state, record, now)

    def _accept_metadata(self, state: NodeState, record: Metadata, now: float) -> None:
        """Store a record from the Internet (always trusted/signed)."""
        if state.accept_metadata(record, now):
            self._metrics.on_metadata(state.node, record.uri, now)

    # ------------------------------------------------------------------ contacts

    def handle_contacts(self, contacts: Sequence[Contact], now: float) -> None:
        """Process every contact sharing one trace instant as a batch.

        Contacts are handled in order with semantics identical to
        calling :meth:`handle_contact` once per contact; each call
        counts one ``contact_batches``.
        """
        self.counters.contact_batches += 1
        for contact in contacts:
            self.handle_contact(contact, now)

    def handle_contact(self, contact: Contact, now: float) -> None:
        """Process one contact: hellos, discovery phase, download phase."""
        self.counters.contacts_processed += 1
        budget_scale = 1.0
        if self._faults is not None:
            transformed, budget_scale = self._faults.transform_contact(contact)
            if transformed is None:
                return
            contact = transformed
        if self._down:
            alive = contact.members - self._down
            if len(alive) < 2:
                if self._faults is not None:
                    self._faults.count("contacts_skipped_down")
                return
            if alive != contact.members:
                contact = Contact(contact.start, contact.end, alive)
        # Trace contacts are complete graphs: the members form one clique.
        members = contact.members
        budget = self._contact_budget(contact, budget_scale)
        perf = self.perf
        self.counters.cliques_processed += 1
        states = {node: self._states[node] for node in members}
        token = perf.start()
        self._exchange_hellos(states, now)
        perf.stop("hellos", token)
        # One clique view serves both phases of this contact; the
        # metadata phase patches it incrementally as records spread.
        token = perf.start()
        view = CliqueView(states, now)
        perf.stop("view_build", token)
        perf.count("view_builds")
        if self._config.variant.distributes_metadata:
            token = perf.start()
            self._run_metadata_phase(states, members, now, budget.metadata, view)
            perf.stop("metadata_phase", token)
        token = perf.start()
        self._run_piece_phase(states, members, now, budget.pieces, view)
        perf.stop("piece_phase", token)

    def _contact_budget(self, contact: Contact, scale: float = 1.0) -> ContactBudget:
        """Fixed per-contact budget, or one derived from the duration.

        ``scale`` (< 1 for truncated contacts) shrinks a fixed budget;
        duration-derived budgets already see the shortened contact and
        are not scaled twice.
        """
        if not self._config.duration_budgets:
            return self._config.budget.scaled(scale)
        from repro.net.medium import (
            BANDWIDTH_BYTES_PER_S,
            METADATA_BASE_SIZE,
            budget_from_duration,
        )
        from repro.catalog.files import PIECE_SIZE

        return budget_from_duration(
            duration=contact.duration,
            bandwidth_bytes_per_s=BANDWIDTH_BYTES_PER_S,
            metadata_size=METADATA_BASE_SIZE,
            piece_size=PIECE_SIZE,
            metadata_share=METADATA_SHARE,
        )

    def _exchange_hellos(self, states: Mapping[NodeId, NodeState], now: float) -> None:
        """Mutual hello reception; MBT also stores frequent contacts' queries.

        Of what a hello carries, the simulator keeps only what a later
        step reads: access members remember the advertised downloads for
        their proxy downloads (see :meth:`internet_sync`). Nothing reads
        the neighbor table here, so it is not filled.
        """
        requests: Dict[Uri, Set[NodeId]] = {}  # advertised URI -> advertisers
        for node, state in states.items():
            for uri in state.wanted_uris(now):
                requests.setdefault(uri, set()).add(node)
        self.counters.hello_exchanges += len(states)
        for __, state in states.items():
            if state.internet_access:
                state.remember_peer_requests(requests, now)
        self.store_frequent_queries(states, now)

    def store_frequent_queries(
        self, states: Mapping[NodeId, NodeState], now: float
    ) -> None:
        """Full MBT: members store their frequent contacts' own queries.

        A local action on hello contents, shared by the simulator and
        the wire-level runtime; other variants store nothing.
        """
        if not self._config.variant.distributes_queries:
            return
        for node, state in states.items():
            if not state.strategy.carries_queries:
                continue  # free-riders do not carry anyone's queries
            for peer, peer_state in states.items():
                if peer != node and peer in state.frequent_contacts:
                    state.store_foreign_queries(peer, peer_state.own_queries(now))

    def _candidate_pool(
        self,
        states: Mapping[NodeId, NodeState],
        members: FrozenSet[NodeId],
        builder,
    ) -> _CandidatePool:
        """Start one phase's candidates under hiding and rejection screens.

        **Hiding** (under-reporting): a hider claims not to hold the
        record/piece. It is moved from every candidate's ``holders``
        into ``missing``, so it is never picked as a sender and even
        baits peers into wasting channel budget re-sending it items it
        secretly holds (the duplicate earns the sender nothing).

        **Screening** (reputation credit policy): a rejected fake is
        never stored, so it re-enters the candidate pool as "missing
        everywhere" at every later contact and taxes the clique's
        channel budget forever. A node that has *first-hand* seen a URI
        fail verification (``NodeState.rejected_uris``) refuses to be a
        transmission target for it again: it is dropped from the
        candidate's ``missing`` set, so a fake stops being sendable once
        every reachable member has rejected it, while the polluter's
        honest service is left untouched. Under the plain policy (and in
        clean runs) nobody screens.

        Both apply to each candidate as it is built, so the builders stay
        adversary-agnostic, and both act as they would have at phase
        start. The hidden holdings are counted from each hider's holdings
        now. The screens read the live ``rejected_uris``: a receiver adds
        a URI to it only when that URI is sent, and a sent URI was built
        before. Hiders are visited in sorted order to keep the mutated
        sets' layout history deterministic.
        """
        adversary = self._adversary
        hiders: List[NodeId] = []
        if adversary is not None and adversary.hiders:
            hiders = sorted(adversary.hiders & members)
            for node in hiders:
                hidden = builder.held_by(node)
                if hidden:
                    adversary.count("holdings_hidden", hidden)
        screeners = [
            (node, state.rejected_uris)
            for node, state in states.items()
            if state.credits.policy != "plain" and state.rejected_uris
        ]
        if not hiders and not screeners:
            return _CandidatePool(builder, None)

        def prepare(cand) -> None:
            for node in hiders:
                if node in cand.holders:
                    cand.holders.discard(node)
                    cand.missing.add(node)
            uri = cand.metadata.uri
            for node, rejected in screeners:
                if uri in rejected:
                    cand.missing.discard(node)

        return _CandidatePool(builder, prepare)

    # -- scheduling ------------------------------------------------------------

    def _schedule(
        self,
        states: Mapping[NodeId, NodeState],
        members: FrozenSet[NodeId],
        pool: _CandidatePool,
        serving: FrozenSet[NodeId],
        budget: int,
        now: float,
        ranks: ModuleType,
        transmit: Callable[[_C, NodeId], bool],
    ) -> None:
        """Spend one phase's budget; both phases share this scheduler.

        ``ranks`` is the phase's policy module (:mod:`~repro.core.discovery`
        or :mod:`~repro.core.download`), which defines the rank keys;
        ``serving`` holds the members whose strategy sends in this
        phase, and ``transmit(cand, sender)`` returns True if it sent.
        The order equals a full sort of every candidate by the rank
        keys, but ``pool`` builds a tail URI only when the order reaches
        it. The rank keys are unique (URI, and piece index, tie-break),
        so the heaps never compare candidates.
        """
        if self._config.effective_scheduling() is SchedulingMode.COORDINATOR:
            # The coordinator sees the whole clique: each slot goes to
            # the globally best candidate, sent by its lowest-id serving
            # holder. One heap holds every built candidate. A candidate
            # whose requesters change is pushed again under a new stamp;
            # entries with an old stamp are skipped. A candidate that
            # cannot be sent now never can: only sending it adds holders.
            rank = ranks.cooperative_rank_key
            heap: List[Tuple[tuple, int, _C]] = []
            dropped: Set[_C] = set()

            def push(cand: _C) -> None:
                if cand not in dropped:
                    cand.stamp += 1
                    heapq.heappush(heap, (rank(cand), cand.stamp, cand))

            pool.on_change = push
            for uri in pool.head_uris:
                for cand in pool.of(uri):
                    push(cand)
            for __ in range(budget):
                while True:
                    while heap and (
                        heap[0][1] != heap[0][2].stamp
                        or not heap[0][2].missing
                        or serving.isdisjoint(heap[0][2].holders)
                    ):
                        heapq.heappop(heap)
                    top = heap[0][2] if heap else None
                    if top is not None and top.requested:
                        break
                    uri = pool.next_tail_uri(top)
                    if uri is None:
                        break
                    for cand in pool.of(uri):
                        push(cand)
                if not heap:
                    return
                best = heapq.heappop(heap)[2]
                if transmit(best, min(best.holders & serving)):
                    pool.changed(best)
                else:
                    dropped.add(best)
            return
        if self._adversary is not None and not pool.has_candidates():
            return  # nobody takes a turn, so none is counted as skipped
        # Each turn re-ranks the sender's requested candidates by its
        # credits now (they change when it receives), then walks the
        # shared un-requested tail, which ranks after them.
        rank_for = ranks.tit_for_tat_rank_key
        turns = itertools.cycle(cyclic_order(members))
        spent = idle_turns = 0
        while spent < budget and idle_turns < len(members):
            sender_id = next(turns)
            if sender_id not in serving:
                if self._adversary is not None:
                    self._adversary.count("turns_skipped")
                idle_turns += 1
                continue
            sender = states[sender_id]
            ranked = [
                (rank_for(c, sender, now), c)
                for c in pool.head
                if sender_id in c.holders and c.missing
            ]
            heapq.heapify(ranked)
            sent = False
            while ranked and not sent:
                cand = heapq.heappop(ranked)[1]
                sent = transmit(cand, sender_id)
            if not sent:
                for cand in pool.tail(sender_id):
                    sent = transmit(cand, sender_id)
                    if sent:
                        break
            if sent:
                pool.changed(cand)
                spent += 1
                idle_turns = 0
            else:
                idle_turns += 1

    # -- metadata phase ------------------------------------------------------------

    def _run_metadata_phase(
        self,
        states: Mapping[NodeId, NodeState],
        members: FrozenSet[NodeId],
        now: float,
        budget: int,
        view: CliqueView,
    ) -> None:
        if budget <= 0:
            return
        include_foreign = self._config.variant.distributes_queries
        builder = discovery.MetadataBuilder(states, now, include_foreign, view)
        pool = self._candidate_pool(states, members, builder)
        serving = frozenset(n for n in members if states[n].strategy.serves)

        def transmit(cand: discovery.ScheduledMetadata, sender: NodeId) -> bool:
            return self._transmit_metadata(states, members, cand, sender, now, view)

        self._schedule(states, members, pool, serving, budget, now, discovery, transmit)
        self.perf.count("meta_candidates", pool.built)

    def _transmit_metadata(
        self,
        states: Mapping[NodeId, NodeState],
        members: FrozenSet[NodeId],
        cand: discovery.ScheduledMetadata,
        sender: NodeId,
        now: float,
        view: CliqueView,
    ) -> bool:
        """Broadcast (or unicast) one record; return True if sent."""
        if self._medium.name == "broadcast":
            receivers = self._medium.receivers(sender, members) & frozenset(cand.missing)
        else:
            receivers = self._pairwise_receiver(cand.requesters, cand.missing, sender)
        if not receivers:
            return False
        # Loss is drawn per receiver after the send is committed: a
        # fully lost transmission still consumed the channel slot.
        if self._faults is not None:
            receivers = self._faults.deliverable(receivers, "metadata")
        states[sender].stats.metadata_sent += 1
        self.counters.metadata_transmissions += 1
        record = cand.metadata
        # The popularity the sender *claims* for this broadcast; only
        # exploiter strategies raise it above the signed record value.
        claimed = record.popularity
        if self._adversary is not None:
            claimed = self._adversary.claimed_popularity(sender, record.popularity)
            if record.uri.startswith(PIRATE_URI_PREFIX):
                self._adversary.count("fake_metadata_transmissions")
        tokens = record.token_set
        for receiver in receivers:
            state = states[receiver]
            requested = any(query <= tokens for query in state.own_query_tokens(now))
            duplicates_before = state.stats.metadata_duplicates
            evictions_before = state.metadata.evictions
            rejected_before = state.stats.metadata_rejected_auth
            new = state.accept_metadata(record, now)
            if state.metadata.evictions != evictions_before:
                # The insert displaced some other record; the view's
                # holder sets for that record are now stale.
                view.mark_dirty()
            elif new or state.stats.metadata_duplicates != duplicates_before:
                # Stored, or already held (a hider re-receiving a
                # record it kept out of its advertisements).
                view.note_holder(receiver, record)
            if new:
                self._metrics.on_metadata(receiver, record.uri, now)
                if requested:
                    state.credits.reward_requested(sender, now)
                else:
                    state.credits.reward_unrequested(
                        sender, record.popularity, now, claimed=claimed
                    )
            elif state.stats.metadata_rejected_auth > rejected_before:
                # The record failed signature verification in the
                # receiver's hands: first-hand evidence against the
                # sender (no-op under the plain credit policy).
                state.credits.penalize(sender, now)
            cand.missing.discard(receiver)
            cand.own_requesters.discard(receiver)
            cand.proxy_requesters.discard(receiver)
            cand.holders.add(receiver)
        return True

    def _unchoked(
        self, sender: NodeState, receivers: FrozenSet[NodeId], now: float = 0.0
    ) -> FrozenSet[NodeId]:
        """Receivers that get the decryption key (§IV-B future work).

        A receiver is unchoked when its credit with the sender strictly
        exceeds :data:`CHOKE_CREDIT_THRESHOLD`. The open metadata phase is
        the bootstrap: any peer that ever sent the sender a useful
        record has positive credit, so only nodes that transmit
        *nothing* stay choked.

        Internet-access nodes never choke: they are the seeds of the
        hybrid DTN, and a seed that demands reciprocation starves the
        whole network (they usually hold everything, so peers cannot
        earn credit with them) — the same reason BitTorrent seeds
        upload unconditionally.
        """
        if sender.internet_access:
            return receivers
        return frozenset(
            r
            for r in receivers
            if sender.credits.effective_credit(r, now) > CHOKE_CREDIT_THRESHOLD
        )

    @staticmethod
    def _pairwise_receiver(
        requesters: Set[NodeId], missing: Set[NodeId], sender: NodeId
    ) -> FrozenSet[NodeId]:
        """Single receiver for the pair-wise baseline: best requester."""
        pool = (requesters or missing) - {sender}
        if not pool:
            return frozenset()
        return frozenset({min(pool)})

    # -- piece phase ------------------------------------------------------------

    def _run_piece_phase(
        self,
        states: Mapping[NodeId, NodeState],
        members: FrozenSet[NodeId],
        now: float,
        budget: int,
        view: CliqueView,
    ) -> None:
        if budget <= 0:
            return
        # Reuse the discovery phase's view; a mid-contact eviction
        # (rare) forces one full rebuild here.
        if view.refresh():
            self.perf.count("view_rebuilds")
        else:
            self.perf.count("view_reuses")
        builder = download.PieceBuilder(states, now, view)
        pool = self._candidate_pool(states, members, builder)
        serving = frozenset(
            n
            for n in members
            if states[n].strategy.serves and states[n].strategy.serves_pieces
        )

        def transmit(cand: download.ScheduledPiece, sender: NodeId) -> bool:
            return self._transmit_piece(states, members, pool, cand, sender, now)

        self._schedule(states, members, pool, serving, budget, now, download, transmit)
        self.perf.count("piece_candidates", pool.built)

    def _transmit_piece(
        self,
        states: Mapping[NodeId, NodeState],
        members: FrozenSet[NodeId],
        pool: _CandidatePool,
        cand: download.ScheduledPiece,
        sender: NodeId,
        now: float,
    ) -> bool:
        """Broadcast one piece (with attached metadata); True if sent."""
        if self._medium.name == "broadcast":
            receivers = self._medium.receivers(sender, members) & frozenset(cand.missing)
        else:
            receivers = self._pairwise_receiver(cand.requesters, cand.missing, sender)
        if not receivers:
            return False
        if self._config.encrypted_choking:
            unchoked = self._unchoked(states[sender], receivers, now)
            self.counters.choked_sends += len(receivers) - len(unchoked)
            receivers = unchoked
            if not receivers:
                return False
        corrupted = False
        if self._faults is not None:
            # As with loss, corruption strikes after the send committed.
            corrupted = self._faults.corrupt_transmission()
            receivers = self._faults.deliverable(receivers, "piece")
        states[sender].stats.pieces_sent += 1
        self.counters.piece_transmissions += 1
        record = cand.metadata
        payload = piece_payload(record.uri, cand.index)
        checksum = record.checksums[cand.index]
        claimed = record.popularity
        if self._adversary is not None:
            claimed = self._adversary.claimed_popularity(sender, record.popularity)
            if record.uri.startswith(PIRATE_URI_PREFIX):
                self._adversary.count("fake_piece_transmissions")
        newly_interested: List[NodeId] = []
        for receiver in receivers:
            state = states[receiver]
            if corrupted:
                # The whole frame is garbage: the piggybacked metadata
                # is unusable and checksum verification rejects the
                # piece, so the receiver keeps needing it (stays in
                # ``missing`` and ``requesters``). The receiver cannot
                # tell channel corruption from a malicious sender and
                # blames the sender (no-op under plain credits).
                try:
                    state.accept_piece(
                        record.uri, cand.index, corrupt_payload(payload), checksum
                    )
                except IntegrityError:
                    assert self._faults is not None
                    self._faults.count("corrupt_receipts")
                    state.credits.penalize(sender, now)
                continue
            wanted_before = record.uri in state.wanted_uris(now)
            rejected_before = state.stats.metadata_rejected_auth
            # Pieces carry their metadata so receivers can verify them;
            # under MBT-QM this piggyback is how metadata spread at all.
            if state.accept_metadata(record, now):
                self._metrics.on_metadata(receiver, record.uri, now)
                if record.uri in state.wanted_uris(now) and not wanted_before:
                    newly_interested.append(receiver)
            elif state.stats.metadata_rejected_auth > rejected_before:
                # Piggybacked metadata failed signature verification:
                # first-hand evidence against the sender.
                state.credits.penalize(sender, now)
            new = state.accept_piece(record.uri, cand.index, payload, checksum)
            if new:
                if wanted_before or receiver in newly_interested:
                    state.credits.reward_requested(sender, now)
                else:
                    state.credits.reward_unrequested(
                        sender, record.popularity, now, claimed=claimed
                    )
                if state.pieces.is_complete(record.uri, record.num_pieces):
                    state.stats.files_completed += 1
                    self._metrics.on_file_complete(receiver, record.uri, now)
            cand.missing.discard(receiver)
            cand.requesters.discard(receiver)
            cand.holders.add(receiver)
        # A receiver that just became interested in this URI now requests
        # the file's other pieces, raising their phase-one priority.
        if newly_interested:
            for other in pool.of(record.uri):
                if other is cand:
                    continue
                gained = [
                    node
                    for node in newly_interested
                    if node in other.missing and node not in other.requesters
                ]
                if gained:
                    other.requesters.update(gained)
                    pool.changed(other)
        return True
