"""The device runtime: MBT with strictly local knowledge.

A :class:`DTNNode` knows only (a) its own :class:`~repro.core.node.
NodeState` and (b) what peers said in their hello frames: query
strings, downloading URIs with piece bitmaps, and a metadata-store
digest (``held_uris``). Candidate selection reimplements §IV/§V
rankings on top of that information alone — no reads of peer state.

The hello carries everything the schedulers need (BitTorrent-style
have-maps for pieces, a store digest for metadata), so local candidate
selection sees the same facts the omniscient simulator reads directly;
the equivalence tests in ``tests/test_runtime.py`` verify the two
implementations deliver comparably on identical workloads. Remaining
divergence is inherent to per-node scheduling: each sender ranks only
its own candidates (there is no coordinator message exchange), exactly
the §V-B cyclic mode.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.catalog.files import IntegrityError, bit_indices, pack_bitmap, piece_payload
from repro.core.mbt import ProtocolConfig
from repro.core.node import NodeState
from repro.net.messages import HELLO_NEIGHBOR_WINDOW
from repro.runtime import codec
from repro.runtime.codec import CodecError, Frame, FrameType
from repro.sim.metrics import MetricsCollector
from repro.types import NodeId, Uri


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
        self.peer_query_tokens: Dict[NodeId, Tuple[FrozenSet[str], ...]] = {}
        #: Queries peers carry for their frequent contacts (full MBT).
        self.peer_carried_tokens: Dict[NodeId, Tuple[FrozenSet[str], ...]] = {}
        #: URIs each peer advertises as wanted (§III-B d).
        self.peer_downloading: Dict[NodeId, Set[Uri]] = {}
        #: Metadata-store digests per peer.
        self.peer_held: Dict[NodeId, Set[Uri]] = {}
        #: Have-maps per peer: uri -> bitmap of piece indices the peer
        #: holds (bit ``i`` set = piece ``i``). The hello wire format
        #: stays a sorted index list; bitmaps are the in-memory form.
        self.peer_have: Dict[NodeId, Dict[Uri, int]] = {}
        #: Members of the contact currently in progress (broadcast
        #: inference: every data frame on the air reached all of them).
        self.current_clique: FrozenSet[NodeId] = frozenset()
        #: Diagnostics.
        self.frames_received = 0
        self.frames_dropped = 0

    def begin_contact(self, members: FrozenSet[NodeId]) -> None:
        """Enter a contact: remember who shares the broadcast domain."""
        self.current_clique = members

    def end_contact(self) -> None:
        """Leave the contact."""
        self.current_clique = frozenset()

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

    def propose_metadata(
        self, now: float, clique: FrozenSet[NodeId]
    ) -> Optional[Tuple[Tuple, Uri]]:
        """Best local metadata candidate as (ranking key, uri), or None.

        §IV-A two-phase ranking over peers' hello-advertised queries
        (own above carried) and store digests. Keys are comparable
        across members, so the coordinator can pick the clique's best
        proposal — and all members would agree, having the same hello
        information.
        """
        if not self.state.strategy.serves:
            return None
        peers = [p for p in clique if p != self.node_id]
        best_key: Optional[Tuple] = None
        best_uri: Optional[Uri] = None
        for record in self.state.metadata.records():
            if not record.is_live(now):
                continue
            missing = [
                p for p in peers if record.uri not in self.peer_held.get(p, set())
            ]
            if not missing:
                continue
            own_req = sum(
                1
                for p in missing
                if any(
                    tokens <= record.token_set
                    for tokens in self.peer_query_tokens.get(p, ())
                )
            )
            proxy_req = sum(
                1
                for p in missing
                if not any(
                    tokens <= record.token_set
                    for tokens in self.peer_query_tokens.get(p, ())
                )
                and any(
                    tokens <= record.token_set
                    for tokens in self.peer_carried_tokens.get(p, ())
                )
            )
            phase = 0 if (own_req or proxy_req) else 1
            key = (phase, -own_req, -proxy_req, -record.popularity, record.uri)
            if best_key is None or key < best_key:
                best_key = key
                best_uri = record.uri
        if best_uri is None:
            return None
        return (best_key, best_uri)

    def metadata_frame_for(self, uri: Uri, now: float) -> bytes:
        """Serialize the METADATA frame for a record this node holds."""
        record = self.state.metadata.get(uri)
        if record is None:
            raise KeyError(f"node {self.node_id} does not hold {uri}")
        return codec.build_metadata_frame(self.node_id, now, record)

    def next_metadata_frame(
        self, now: float, clique: FrozenSet[NodeId]
    ) -> Optional[bytes]:
        """Cyclic-mode transmission: this node's own best candidate."""
        proposal = self.propose_metadata(now, clique)
        if proposal is None:
            return None
        return self.metadata_frame_for(proposal[1], now)

    def propose_piece(
        self, now: float, clique: FrozenSet[NodeId]
    ) -> Optional[Tuple[Tuple, Uri, int]]:
        """Best local piece candidate as (key, uri, index), or None (§V-A)."""
        strategy = self.state.strategy
        if not (strategy.serves and strategy.serves_pieces):
            return None
        peers = [p for p in clique if p != self.node_id]
        best_key: Optional[Tuple] = None
        best: Optional[Tuple[Uri, int]] = None
        for uri in self.state.pieces.uris:
            record = self.state.metadata.get(uri)
            if record is None or not record.is_live(now):
                continue
            for index in bit_indices(self.state.pieces.bitmap_of(uri)):
                mask = 1 << index
                requesters = 0
                lacking = 0
                for peer in peers:
                    if self.peer_have.get(peer, {}).get(uri, 0) & mask:
                        continue
                    lacking += 1
                    if uri in self.peer_downloading.get(peer, set()):
                        requesters += 1
                if not lacking:
                    continue
                phase = 0 if requesters else 1
                key = (phase, -requesters, -record.popularity, uri, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (uri, index)
        if best is None:
            return None
        return (best_key, best[0], best[1])

    def piece_frame_for(self, uri: Uri, index: int, now: float) -> bytes:
        """Serialize the PIECE frame for a piece this node holds."""
        record = self.state.metadata.get(uri)
        if record is None or index not in self.state.pieces.pieces_of(uri):
            raise KeyError(f"node {self.node_id} does not hold {uri}#{index}")
        payload = piece_payload(uri, index)
        return codec.build_piece_frame(self.node_id, now, record, index, payload)

    def next_piece_frame(
        self, now: float, clique: FrozenSet[NodeId]
    ) -> Optional[bytes]:
        """Cyclic-mode transmission: this node's own best candidate."""
        proposal = self.propose_piece(now, clique)
        if proposal is None:
            return None
        return self.piece_frame_for(proposal[1], proposal[2], now)

    def note_own_broadcast(self, data: bytes, clique: FrozenSet[NodeId]) -> None:
        """Record that every clique peer now holds what we just sent."""
        frame = codec.decode_frame(data)
        if frame.frame_type is FrameType.METADATA:
            uri = Uri(str(frame.field("record")["uri"]))
            for peer in clique:
                if peer != self.node_id:
                    self.peer_held.setdefault(peer, set()).add(uri)
        elif frame.frame_type is FrameType.PIECE:
            uri = Uri(str(frame.field("record")["uri"]))
            index = int(frame.field("index"))
            for peer in clique:
                if peer == self.node_id:
                    continue
                self.peer_held.setdefault(peer, set()).add(uri)
                have = self.peer_have.setdefault(peer, {})
                have[uri] = have.get(uri, 0) | (1 << index)

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
        sender = frame.sender
        self.state.neighbor_last_heard[sender] = now
        self.peer_query_tokens[sender] = tuple(
            frozenset(tokens) for tokens in frame.field("query_tokens")
        )
        self.peer_carried_tokens[sender] = tuple(
            frozenset(tokens)
            for tokens in frame.body.get("carried_query_tokens", [])
        )
        self.peer_downloading[sender] = {
            Uri(str(uri)) for uri in frame.field("downloading")
        }
        self.peer_held[sender] = {Uri(str(u)) for u in frame.field("held_uris")}
        self.peer_have[sender] = {
            Uri(str(uri)): pack_bitmap(int(i) for i in indices)
            for uri, indices in frame.field("have").items()
        }

    def _mark_clique_received(self, uri: Uri, index: Optional[int] = None) -> None:
        """Broadcast inference: every current clique member got the frame."""
        for peer in self.current_clique:
            if peer == self.node_id:
                continue
            self.peer_held.setdefault(peer, set()).add(uri)
            if index is not None:
                have = self.peer_have.setdefault(peer, {})
                have[uri] = have.get(uri, 0) | (1 << index)

    def _on_metadata(self, frame: Frame, now: float) -> None:
        try:
            record = codec.metadata_from_fields(frame.field("record"))
        except CodecError:
            self.frames_dropped += 1
            return
        self.peer_held.setdefault(frame.sender, set()).add(record.uri)
        self._mark_clique_received(record.uri)
        if self.state.accept_metadata(record, now) and self.metrics is not None:
            self.metrics.on_metadata(self.node_id, record.uri, now)

    def _on_piece(self, frame: Frame, now: float) -> None:
        try:
            record = codec.metadata_from_fields(frame.field("record"))
            index = int(frame.field("index"))
            payload = codec.piece_payload_from_frame(frame)
        except CodecError:
            self.frames_dropped += 1
            return
        self.peer_held.setdefault(frame.sender, set()).add(record.uri)
        self._mark_clique_received(record.uri, index)
        if self.state.accept_metadata(record, now) and self.metrics is not None:
            self.metrics.on_metadata(self.node_id, record.uri, now)
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
