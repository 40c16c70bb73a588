"""Broadcast-based file download: piece selection policies (§V).

After discovery, the clique spends its piece budget. Candidate
transmissions are (file, piece-index) pairs somebody holds and somebody
lacks:

* **Cooperative** (§V-A): pieces requested by nodes in the clique go
  first — those requested by *more* nodes first, decreasing file
  popularity breaking ties; then the remaining pieces in decreasing
  popularity.
* **Tit-for-tat** (§V-B): the same credit mechanism as discovery —
  candidates weighed by the sum of the sender's credits for the
  requesting nodes.

A node "requests" a URI when it advertises it in the *downloading*
field of its hello, i.e. it holds a metadata matching one of its own
queries and the file is incomplete.

Every piece carries its file's metadata (needed for checksum
verification by receivers that lack it); in MBT-QM this piggyback is
the *only* way metadata spread.

The engine asks :class:`PieceBuilder` only for the pieces of requested
files up front, and for the rest file by file as its scheduler reaches
them in popularity order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.catalog.files import bit_indices
from repro.catalog.metadata import Metadata
from repro.core.cliqueview import CliqueView
from repro.core.node import NodeState
from repro.types import NodeId, Uri


@dataclass(frozen=True)
class PieceCandidate:
    """One piece transmission the clique could schedule.

    Attributes
    ----------
    metadata:
        The file's metadata (source of checksum and popularity).
    index:
        Piece index within the file.
    holders:
        Members holding this piece *and* the file's metadata.
    requesters:
        Members downloading the URI that lack this piece.
    missing:
        All members lacking this piece.
    """

    metadata: Metadata
    index: int
    holders: FrozenSet[NodeId]
    requesters: FrozenSet[NodeId]
    missing: FrozenSet[NodeId]

    @property
    def uri(self) -> Uri:
        return self.metadata.uri

    @property
    def requested(self) -> bool:
        return bool(self.requesters)


def advertised_downloads(
    states: Mapping[NodeId, NodeState], now: float
) -> Dict[NodeId, FrozenSet[Uri]]:
    """URIs each member advertises as downloading in its hello."""
    return {node: state.wanted_uris(now) for node, state in states.items()}


class ScheduledPiece:
    """A piece candidate in the mutable form the engine schedules.

    Same fields as :class:`PieceCandidate`, as sets the engine updates
    in place while the piece spreads. ``stamp`` versions the
    coordinator's heap entries for the candidate.
    """

    __slots__ = ("metadata", "index", "holders", "requesters", "missing", "stamp")

    def __init__(
        self,
        metadata: Metadata,
        index: int,
        holders: Set[NodeId],
        requesters: Set[NodeId],
        missing: Set[NodeId],
    ) -> None:
        self.metadata = metadata
        self.index = index
        self.holders = holders
        self.requesters = requesters
        self.missing = missing
        self.stamp = 0

    @property
    def uri(self) -> Uri:
        return self.metadata.uri

    @property
    def requested(self) -> bool:
        return bool(self.requesters)

    def freeze(self) -> PieceCandidate:
        return PieceCandidate(
            metadata=self.metadata,
            index=self.index,
            holders=frozenset(self.holders),
            requesters=frozenset(self.requesters),
            missing=frozenset(self.missing),
        )


class PieceBuilder:
    """Builds a clique's piece candidates one URI at a time.

    A sender must hold both the piece and the file's metadata (the
    checksums travel with the piece). Requesters come from the
    downloading URIs advertised in hellos, read once at construction.
    The clique's metadata side (live URIs, canonical records, holder
    sets) comes from ``view``, shared with the discovery phase by the
    protocol engine, and per-piece membership is computed with the
    stores' bitmaps: one ``int`` per (member, URI), combined bitwise
    instead of per-index set algebra.

    :attr:`head_uris` are the URIs some member is downloading; every
    other URI builds only un-requested candidates. :meth:`build`
    reproduces the candidates the clique had at construction for as
    long as the URI's pieces have not moved, which holds for every URI
    not yet transmitted.
    """

    def __init__(
        self,
        states: Mapping[NodeId, NodeState],
        now: float,
        view: CliqueView,
    ) -> None:
        self.view = view
        self._states = states
        self._members = frozenset(states)
        self._member_list = list(states)
        self._downloads = advertised_downloads(states, now)
        wanted: Set[Uri] = set().union(*self._downloads.values())
        #: URIs some member is downloading, sorted.
        self.head_uris: List[Uri] = sorted(
            uri for uri in wanted if uri in view.record_by_uri
        )

    def build(self, uri: Uri) -> List[ScheduledPiece]:
        """The candidates of ``uri``, by ascending piece index."""
        states = self._states
        holder_bitmaps = []
        union = 0
        for node in self._member_list:
            bitmap = states[node].pieces.bitmap_of(uri)
            if bitmap:
                holder_bitmaps.append((node, bitmap))
                union |= bitmap
        if not union:
            return []
        record = self.view.record_by_uri[uri]
        eligible_pool = self.view.md_holders[uri]
        wanting = [node for node in self._member_list if uri in self._downloads[node]]
        candidates: List[ScheduledPiece] = []
        for index in bit_indices(union):
            mask = 1 << index
            holders = {node for node, bitmap in holder_bitmaps if bitmap & mask}
            eligible_senders = holders & eligible_pool
            if not eligible_senders:
                continue
            missing = self._members - holders
            if not missing:
                continue
            requesters = {node for node in wanting if node not in holders}
            candidates.append(
                ScheduledPiece(record, index, eligible_senders, requesters, set(missing))
            )
        return candidates

    def may_send(self, uri: Uri, node: NodeId) -> bool:
        """Whether ``node`` holds ``uri``'s metadata and one of its pieces."""
        return node in self.view.md_holders[uri] and bool(
            self._states[node].pieces.bitmap_of(uri)
        )

    def has_candidates(self) -> bool:
        """Whether the clique has any candidate at all."""
        states = self._states
        for uri, md_holders in self.view.md_holders.items():
            sendable = 0
            everyone = -1
            for member in self._member_list:
                bitmap = states[member].pieces.bitmap_of(uri)
                everyone &= bitmap
                if member in md_holders:
                    sendable |= bitmap
            if sendable & ~everyone:
                return True
        return False

    def held_by(self, node: NodeId) -> int:
        """Candidates that list ``node`` among their holders."""
        states = self._states
        count = 0
        for uri, md_holders in self.view.md_holders.items():
            if node not in md_holders:
                continue
            own = states[node].pieces.bitmap_of(uri)
            if not own:
                continue
            everyone = own
            for member in self._member_list:
                everyone &= states[member].pieces.bitmap_of(uri)
            count += (own & ~everyone).bit_count()
        return count


def build_piece_candidates(
    states: Mapping[NodeId, NodeState],
    now: float,
    view: Optional[CliqueView] = None,
) -> List[PieceCandidate]:
    """Enumerate every useful piece transmission in the clique.

    Every URI of ``view`` (built on demand when absent) goes through
    one :class:`PieceBuilder`, in popularity order.
    """
    if view is None:
        view = CliqueView(states, now)
    builder = PieceBuilder(states, now, view)
    return [
        cand.freeze()
        for uri in view.popularity_order()
        for cand in builder.build(uri)
    ]


def build_piece_candidates_reference(
    states: Mapping[NodeId, NodeState],
    now: float,
) -> List[PieceCandidate]:
    """Naive reference implementation of :func:`build_piece_candidates`.

    Walks per-index piece sets and scans every member's metadata store.
    Kept as the specification the bitmap-based builder is
    property-tested against (identical candidates on random cliques).
    """
    downloads = advertised_downloads(states, now)
    members = frozenset(states)

    # Which live metadata does each member hold (for send eligibility)?
    metadata_by_uri: Dict[Uri, Metadata] = {}
    md_holders: Dict[Uri, Set[NodeId]] = {}
    for node in sorted(states):
        for record in states[node].metadata.records():
            if not record.is_live(now):
                continue
            md_holders.setdefault(record.uri, set()).add(node)
            existing = metadata_by_uri.get(record.uri)
            if existing is None or record.popularity > existing.popularity:
                metadata_by_uri[record.uri] = record

    piece_holders: Dict[Tuple[Uri, int], Set[NodeId]] = {}
    for node, state in states.items():
        for uri in state.pieces.uris:
            if uri not in metadata_by_uri:
                continue  # no metadata anywhere in the clique: unservable
            for index in state.pieces.pieces_of(uri):
                piece_holders.setdefault((uri, index), set()).add(node)

    candidates: List[PieceCandidate] = []
    for (uri, index), holders in piece_holders.items():
        record = metadata_by_uri[uri]
        eligible_senders = frozenset(holders & md_holders.get(uri, set()))
        if not eligible_senders:
            continue
        missing = frozenset(
            node
            for node in members
            if index not in states[node].pieces.pieces_of(uri)
        )
        if not missing:
            continue
        requesters = frozenset(
            node for node in missing if uri in downloads[node]
        )
        candidates.append(
            PieceCandidate(
                metadata=record,
                index=index,
                holders=eligible_senders,
                requesters=requesters,
                missing=missing,
            )
        )
    return candidates


def cooperative_rank_key(candidate: PieceCandidate) -> Tuple:
    """Two-phase cooperative order (§V-A).

    The (URI, index) tie-break makes keys unique within a clique. Reads
    only the candidate's fields, so it ranks the protocol engine's
    :class:`ScheduledPiece` as well as frozen candidates.
    """
    phase = 0 if candidate.requesters else 1
    return (
        phase,
        -len(candidate.requesters),
        -candidate.metadata.popularity,
        candidate.uri,
        candidate.index,
    )


def tit_for_tat_rank_key(
    candidate: PieceCandidate, sender: NodeState, now: float
) -> Tuple:
    """Credit-weighted order for a specific sender at time ``now`` (§V-B)."""
    weight = sender.credits.weight_of_requesters(candidate.requesters, now)
    phase = 0 if candidate.requesters else 1
    return (
        -weight,
        phase,
        -candidate.metadata.popularity,
        candidate.uri,
        candidate.index,
    )
