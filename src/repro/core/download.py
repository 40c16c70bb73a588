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


def build_piece_candidates(
    states: Mapping[NodeId, NodeState],
    now: float,
    view: Optional[CliqueView] = None,
) -> List[PieceCandidate]:
    """Enumerate every useful piece transmission in the clique.

    A sender must hold both the piece and the file's metadata (the
    checksums travel with the piece). Requesters come from the
    downloading URIs advertised in hellos.

    The clique's metadata side (live URIs, canonical records, holder
    sets) comes from ``view`` — built on demand when absent, shared
    with the discovery phase by the protocol engine — and per-piece
    membership is computed with the stores' bitmaps: one ``int`` per
    (member, URI), combined bitwise instead of per-index set algebra.
    """
    if view is None:
        view = CliqueView(states, now)
    downloads = advertised_downloads(states, now)
    members = frozenset(states)
    member_list = list(states)

    candidates: List[PieceCandidate] = []
    for uri, record in view.record_by_uri.items():
        holder_bitmaps = []
        union = 0
        for node in member_list:
            bitmap = states[node].pieces.bitmap_of(uri)
            if bitmap:
                holder_bitmaps.append((node, bitmap))
                union |= bitmap
        if not union:
            continue
        eligible_pool = view.md_holders[uri]
        wanting = [node for node in member_list if uri in downloads[node]]
        for index in bit_indices(union):
            mask = 1 << index
            holders = {node for node, bitmap in holder_bitmaps if bitmap & mask}
            eligible_senders = frozenset(holders & eligible_pool)
            if not eligible_senders:
                continue
            missing = members - holders
            if not missing:
                continue
            requesters = frozenset(
                node for node in wanting if node not in holders
            )
            candidates.append(
                PieceCandidate(
                    metadata=record,
                    index=index,
                    holders=eligible_senders,
                    requesters=requesters,
                    missing=frozenset(missing),
                )
            )
    return candidates


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
    mutable scheduler copies as well as frozen candidates.
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
