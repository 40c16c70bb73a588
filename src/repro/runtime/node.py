"""The device runtime: MBT with strictly local knowledge.

A :class:`DTNNode` knows only its own :class:`~repro.core.node.
NodeState` and, per peer, a :class:`PeerFacts`: what the peer's last
hello said (queries, downloading URIs, piece bitmaps, a metadata-store
digest) as patched by the frames heard since. The simulator's own
candidate builders read exactly those facts of a member, so a device
builds its candidates with :mod:`~repro.core.discovery` and
:mod:`~repro.core.download` over a clique view of its own store and
ranks them with each phase's ``cooperative_rank_key`` (§IV-A, §V-A).
Having heard every hello, it proposes what the omniscient simulator
ranks first among the candidates it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from repro.catalog.files import IntegrityError, pack_bitmap, piece_payload
from repro.catalog.metadata import Metadata
from repro.core import discovery, download
from repro.core.cliqueview import CliqueView
from repro.core.mbt import ProtocolConfig
from repro.core.node import NodeState
from repro.runtime import codec
from repro.runtime.codec import CodecError, Frame, FrameType
from repro.sim.metrics import MetricsCollector
from repro.types import NodeId, Uri

#: Hellos advertise neighbors heard within this many seconds (§III-B).
HELLO_NEIGHBOR_WINDOW: float = 5.0


@dataclass
class PeerFacts:
    """What a peer's last hello said, patched by the frames heard since.

    Answers the four reads the candidate builders make of a member:
    its own and carried query tokens, the URIs it is downloading and
    its piece bitmaps.
    """

    #: Token sets of the peer's own queries.
    query_tokens: Tuple[FrozenSet[str], ...] = ()
    #: Queries the peer carries for its frequent contacts (full MBT).
    carried_tokens: Tuple[FrozenSet[str], ...] = ()
    #: URIs the peer advertises as wanted (§III-B d).
    downloading: Set[Uri] = field(default_factory=set)
    #: The peer's metadata-store digest.
    held: Set[Uri] = field(default_factory=set)
    #: uri -> bitmap of the piece indices the peer holds; the hello
    #: carries sorted index lists.
    have: Dict[Uri, int] = field(default_factory=dict)

    def own_query_tokens(self, now: float) -> Tuple[FrozenSet[str], ...]:
        return self.query_tokens

    def foreign_query_tokens(self, now: float) -> Tuple[FrozenSet[str], ...]:
        return self.carried_tokens

    def wanted_uris(self, now: float) -> Set[Uri]:
        return self.downloading

    @property
    def pieces(self) -> "PeerFacts":
        """The builders read ``state.pieces.bitmap_of``."""
        return self

    def bitmap_of(self, uri: Uri) -> int:
        return self.have.get(uri, 0)


@dataclass
class _Proposer:
    """A phase's candidate builder for the proposal view, and how far its
    popularity tail is known to be empty."""

    builder: Any
    #: Position in the view's popularity order before which no URI has a
    #: candidate this node holds. Frames only add holders, so such a URI
    #: gets none while the builder lives, unless this node stores a
    #: record new to it, which moves the order (see ``_store_record``).
    tail_from: int = 0


class DTNNode:
    """One device running the MBT protocol over frames."""

    def __init__(
        self,
        state: NodeState,
        config: ProtocolConfig,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.state = state
        self.config = config
        self.metrics = metrics
        #: Peer knowledge from hello frames.
        self.peers: Dict[NodeId, PeerFacts] = {}
        #: Members of the contact in progress, or of the last one
        #: (broadcast inference: every data frame reached all of them).
        self.current_clique: FrozenSet[NodeId] = frozenset()
        #: Diagnostics.
        self.frames_received = 0
        self.frames_dropped = 0
        # Proposals read a view of this node's store with the peers'
        # holdings added, and the builders over it, kept while frames
        # can patch them; ``_stamp`` is the store mutation count seen.
        self._view: Optional[CliqueView] = None
        self._stamp = 0
        self._proposers: Dict[ModuleType, _Proposer] = {}

    def begin_contact(self, members: FrozenSet[NodeId]) -> None:
        """Enter a contact: remember who shares the broadcast domain."""
        self.current_clique = members
        self._view = None

    @property
    def node_id(self) -> NodeId:
        return self.state.node

    # -- sending ---------------------------------------------------------------------

    def hello_bytes(self, now: float) -> bytes:
        """Serialize this node's hello beacon (§III-B fields + digests)."""
        include_foreign = self.config.variant.distributes_queries
        carried = (
            self.state.foreign_query_tokens(now) if include_foreign else ()
        )
        return codec.build_hello(
            sender=self.node_id,
            sent_at=now,
            heard=tuple(
                int(n)
                for n in self.state.heard_recently(now, HELLO_NEIGHBOR_WINDOW)
            ),
            query_tokens=tuple(
                tuple(tokens) for tokens in self.state.own_query_tokens(now)
            ),
            carried_query_tokens=tuple(tuple(tokens) for tokens in carried),
            downloading=tuple(sorted(str(u) for u in self.state.wanted_uris(now))),
            held_uris=tuple(sorted(str(u) for u in self.state.metadata.uris)),
            have={
                str(uri): tuple(sorted(self.state.pieces.pieces_of(uri)))
                for uri in sorted(self.state.pieces.uris)
            },
        )

    def _view_for(self, now: float) -> CliqueView:
        """The proposal view of the current contact at ``now``, built if stale."""
        view = self._view
        stamp = self.state.metadata.mutations
        # detlint: ignore[DET004] -- a view holds for one exact instant
        if view is None or view.now != now or self._stamp != stamp:
            view = CliqueView({self.node_id: self.state}, now)
            peers = self._contact_peers()
            for uri, record in view.record_by_uri.items():
                for peer, facts in peers.items():
                    if uri in facts.held:
                        view.note_holder(peer, record)
            self._view, self._stamp = view, stamp
            self._proposers = {}
        return view

    def _contact_peers(self) -> Dict[NodeId, PeerFacts]:
        """What this node knows of each other member of the contact."""
        return {
            peer: self.peers.setdefault(peer, PeerFacts())
            for peer in sorted(self.current_clique)
            if peer != self.node_id
        }

    def _best_candidate(self, now: float, phase: ModuleType) -> Any:
        """This node's best candidate under ``phase``'s cooperative key.

        ``phase`` is :mod:`~repro.core.discovery` or :mod:`~repro.core.
        download`. Every un-requested candidate ranks after the requested
        ones, by popularity: the first this node holds in the view's order.
        """
        view = self._view_for(now)
        proposer = self._proposers.get(phase)
        if proposer is None:
            members = {self.node_id: self.state, **self._contact_peers()}
            if phase is discovery:
                include_foreign = self.config.variant.distributes_queries
                builder = discovery.MetadataBuilder(members, now, include_foreign, view)
            else:
                builder = download.PieceBuilder(members, now, view)
            proposer = self._proposers[phase] = _Proposer(builder)
        builder = proposer.builder
        me = self.node_id
        head = [
            cand
            for uri in builder.head_uris
            if builder.may_send(uri, me)
            for cand in builder.build(uri)
            if cand.requested and me in cand.holders
        ]
        if head:
            return min(head, key=phase.cooperative_rank_key)
        order = view.popularity_order()
        for position in range(proposer.tail_from, len(order)):
            uri = order[position]
            if builder.may_send(uri, me):
                for cand in builder.build(uri):
                    if me in cand.holders:
                        proposer.tail_from = position
                        return cand
        proposer.tail_from = len(order)
        return None

    def propose_metadata(self, now: float) -> Optional[Tuple[Tuple, Uri]]:
        """Best local metadata candidate for the current contact as
        (ranking key, uri), or None.

        Keys are comparable across members, so the coordinator can pick
        the clique's best proposal — and all members would agree, having
        the same hello information.
        """
        if not self.state.strategy.serves:
            return None
        best = self._best_candidate(now, discovery)
        if best is None:
            return None
        return (discovery.cooperative_rank_key(best), best.metadata.uri)

    def metadata_frame_for(self, uri: Uri, now: float) -> bytes:
        """Serialize the METADATA frame for a record this node holds."""
        record = self.state.metadata.get(uri)
        if record is None:
            raise KeyError(f"node {self.node_id} does not hold {uri}")
        return codec.build_metadata_frame(self.node_id, now, record)

    def propose_piece(self, now: float) -> Optional[Tuple[Tuple, Uri, int]]:
        """Best local piece candidate for the current contact as
        (key, uri, index), or None."""
        strategy = self.state.strategy
        if not (strategy.serves and strategy.serves_pieces):
            return None
        best = self._best_candidate(now, download)
        if best is None:
            return None
        return (download.cooperative_rank_key(best), best.uri, best.index)

    def piece_frame_for(self, uri: Uri, index: int, now: float) -> bytes:
        """Serialize the PIECE frame for a piece this node holds."""
        record = self.state.metadata.get(uri)
        if record is None or index not in self.state.pieces.pieces_of(uri):
            raise KeyError(f"node {self.node_id} does not hold {uri}#{index}")
        payload = piece_payload(uri, index)
        return codec.build_piece_frame(self.node_id, now, record, index, payload)

    def mark_clique_received(self, uri: Uri, index: Optional[int] = None) -> None:
        """Broadcast inference: every other current clique member got the frame.

        Called for every data frame heard and, by its sender, for every
        data frame sent: ``uri``'s record, and piece ``index`` if given.
        """
        view = self._view
        record = view.record_by_uri.get(uri) if view is not None else None
        for peer in self.current_clique:
            if peer == self.node_id:
                continue
            facts = self.peers.setdefault(peer, PeerFacts())
            facts.held.add(uri)
            if index is not None:
                facts.have[uri] = facts.have.get(uri, 0) | (1 << index)
            if record is not None:
                view.note_holder(peer, record)

    # -- receiving -------------------------------------------------------------------

    def on_frame(self, sender: NodeId, data: bytes, now: float) -> None:
        """Handle one raw frame from the radio; corrupt frames dropped."""
        try:
            frame = codec.decode_frame(data)
        except CodecError:
            self.frames_dropped += 1
            return
        self.frames_received += 1
        if frame.frame_type is FrameType.HELLO:
            self._on_hello(frame, now)
        elif frame.frame_type is FrameType.METADATA:
            self._on_metadata(frame, now)
        elif frame.frame_type is FrameType.PIECE:
            self._on_piece(frame, now)

    def _on_hello(self, frame: Frame, now: float) -> None:
        try:
            facts = PeerFacts(
                query_tokens=tuple(frozenset(t) for t in frame.field("query_tokens")),
                carried_tokens=tuple(
                    frozenset(t) for t in frame.field("carried_query_tokens")
                ),
                downloading={Uri(str(uri)) for uri in frame.field("downloading")},
                held={Uri(str(uri)) for uri in frame.field("held_uris")},
                have={
                    Uri(str(uri)): pack_bitmap(int(i) for i in indices)
                    for uri, indices in frame.field("have").items()
                },
            )
        except (AttributeError, CodecError, TypeError, ValueError):
            self.frames_dropped += 1
            return
        sender = frame.sender
        self.state.neighbor_last_heard[sender] = now
        old = self.peers.get(sender)
        if old is None or old.held != facts.held:
            self._view = None  # it holds the sender's old digest
        self.peers[sender] = facts
        # Access nodes proxy-download what DTN peers advertise (§III-A).
        self.state.remember_peer_requests(
            {uri: {sender} for uri in sorted(facts.downloading)}, now
        )
        # The builders read the sender's other facts when they were made.
        self._proposers = {}

    def _store_record(self, record: Metadata, now: float, index: Optional[int] = None) -> None:
        """Store the record a data frame carries; infer who else got it.

        The proposal view keeps step with the store: an equal copy
        changes nothing and a new record joins the view, while any other
        change (an eviction, a differing copy) drops it.
        """
        if self.state.accept_metadata(record, now) and self.metrics is not None:
            self.metrics.on_metadata(self.node_id, record.uri, now)
        view = self._view
        mutations = self.state.metadata.mutations
        if view is not None and mutations != self._stamp:
            stored = self.state.metadata.peek(record.uri)
            known = view.record_by_uri.get(record.uri)
            if mutations != self._stamp + 1 or stored is None or (
                known is not None and known != stored
            ):
                self._view = None
            elif known is None:
                view.note_holder(self.node_id, stored)
                # The frame reached every member, so discovery is the
                # same but its tail is reordered; and pieces of it this
                # node held become sendable.
                self._proposers.pop(download, None)
                proposer = self._proposers.get(discovery)
                if proposer is not None:
                    proposer.tail_from = 0
            self._stamp = mutations
        self.mark_clique_received(record.uri, index)

    def _on_metadata(self, frame: Frame, now: float) -> None:
        try:
            record = codec.metadata_from_fields(frame.field("record"))
        except CodecError:
            self.frames_dropped += 1
            return
        self._store_record(record, now)

    def _on_piece(self, frame: Frame, now: float) -> None:
        try:
            record = codec.metadata_from_fields(frame.field("record"))
            index = int(frame.field("index"))
            payload = codec.piece_payload_from_frame(frame)
        except (CodecError, TypeError, ValueError):
            self.frames_dropped += 1
            return
        self._store_record(record, now, index)
        if record.uri not in self.state.metadata:
            return  # could not verify the record: refuse the piece too
        if not 0 <= index < record.num_pieces:
            self.frames_dropped += 1
            return
        try:
            new = self.state.accept_piece(
                record.uri, index, payload, record.checksums[index]
            )
        except IntegrityError:
            self.frames_dropped += 1
            return
        if new and self.state.pieces.is_complete(record.uri, record.num_pieces):
            self.state.stats.files_completed += 1
            if self.metrics is not None:
                self.metrics.on_file_complete(self.node_id, record.uri, now)
