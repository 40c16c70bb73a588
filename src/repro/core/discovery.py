"""Cooperative file discovery: metadata selection policies (§IV).

During a contact, the clique has a budget of metadata transmissions.
Which records go on the air, and in what order, is the discovery
policy:

* **Cooperative** (§IV-A): two phases. Phase one sends metadata that
  match the queries of connected nodes — those matching *more* nodes'
  queries first, popularity breaking ties. Phase two sends the
  remaining metadata in decreasing popularity.
* **Tit-for-tat** (§IV-B): each candidate is weighed by the *sum of
  the credits of the nodes requesting it* from the sender's ledger;
  un-requested records fall back to popularity order.

This module is pure policy: it builds candidates and defines their rank
keys. The scheduler that spends the budget — shared with the download
phase — lives in :mod:`repro.core.mbt` and ranks with these keys. It
asks :class:`MetadataBuilder` only for the requested records up front
and for the rest as it reaches them in popularity order: credit
weights are never negative, so under both keys every un-requested
record ranks after every requested one, by popularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.catalog.metadata import Metadata
from repro.core.cliqueview import CliqueView
from repro.core.node import NodeState
from repro.types import NodeId, Uri


@dataclass(frozen=True)
class MetadataCandidate:
    """One metadata record that could be broadcast in the clique.

    Attributes
    ----------
    metadata:
        The record.
    holders:
        Clique members that can transmit it.
    own_requesters:
        Members whose *own* queries match the record and who lack it —
        delivering to them satisfies a user directly.
    proxy_requesters:
        Members requesting it on behalf of a frequent contact (carried
        queries, full MBT only); they collect the record to pass on.
    missing:
        Members that do not hold the record (superset of requesters).
    """

    metadata: Metadata
    holders: FrozenSet[NodeId]
    own_requesters: FrozenSet[NodeId]
    proxy_requesters: FrozenSet[NodeId]
    missing: FrozenSet[NodeId]

    @property
    def requesters(self) -> FrozenSet[NodeId]:
        """All requesters, own and proxy."""
        return self.own_requesters | self.proxy_requesters

    @property
    def requested(self) -> bool:
        return bool(self.own_requesters or self.proxy_requesters)


class ScheduledMetadata:
    """A metadata candidate in the mutable form the engine schedules.

    Same fields as :class:`MetadataCandidate`, as sets the engine
    updates in place while the record spreads. ``stamp`` versions the
    coordinator's heap entries for the candidate.
    """

    __slots__ = ("metadata", "holders", "own_requesters", "proxy_requesters", "missing", "stamp")

    def __init__(
        self,
        metadata: Metadata,
        holders: Set[NodeId],
        own_requesters: Set[NodeId],
        proxy_requesters: Set[NodeId],
        missing: Set[NodeId],
    ) -> None:
        self.metadata = metadata
        self.holders = holders
        self.own_requesters = own_requesters
        self.proxy_requesters = proxy_requesters
        self.missing = missing
        self.stamp = 0

    @property
    def requesters(self) -> Set[NodeId]:
        return self.own_requesters | self.proxy_requesters

    @property
    def requested(self) -> bool:
        return bool(self.own_requesters or self.proxy_requesters)

    def freeze(self) -> MetadataCandidate:
        return MetadataCandidate(
            metadata=self.metadata,
            holders=frozenset(self.holders),
            own_requesters=frozenset(self.own_requesters),
            proxy_requesters=frozenset(self.proxy_requesters),
            missing=frozenset(self.missing),
        )


class MetadataBuilder:
    """Builds a clique's metadata candidates one URI at a time.

    Requesters are computed from the query tokens the members
    advertise in their hellos; under full MBT (``include_foreign``)
    members also request on behalf of the frequent contacts whose
    queries they carry. Matching runs once, at construction, through
    the clique-level inverted token index of ``view``: per member, the
    set of clique URIs its queries match is the union of posting-set
    intersections, instead of a subset test per (member, record) pair.

    :attr:`head_uris` are the URIs some member that lacks the record
    requests; every other URI builds an un-requested candidate (or
    none). :meth:`build` reproduces the candidate the clique had at
    construction for as long as the URI's holder set in ``view`` is
    unchanged, which holds for every URI not yet transmitted.
    """

    def __init__(
        self,
        states: Mapping[NodeId, NodeState],
        now: float,
        include_foreign: bool,
        view: CliqueView,
    ) -> None:
        self.view = view
        self._members = frozenset(states)
        self._own = {
            n: view.matched_uris(s.own_query_tokens(now)) for n, s in states.items()
        }
        if include_foreign:
            self._foreign = {
                n: view.matched_uris(s.foreign_query_tokens(now))
                for n, s in states.items()
            }
        else:
            no_match: Set[Uri] = set()
            self._foreign = {n: no_match for n in states}
        md_holders = view.md_holders
        requested = {
            uri
            for node in states
            for uri in self._own[node] | self._foreign[node]
            if node not in md_holders[uri]
        }
        #: URIs some member lacking the record requests, sorted.
        self.head_uris: List[Uri] = sorted(requested)

    def build(self, uri: Uri) -> List[ScheduledMetadata]:
        """The candidate for ``uri``: none when every member holds it."""
        holders = self.view.md_holders[uri]
        missing = self._members - holders
        if not missing:
            return []
        own = {node for node in missing if uri in self._own[node]}
        proxy = {
            node for node in missing if node not in own and uri in self._foreign[node]
        }
        return [
            ScheduledMetadata(
                self.view.record_by_uri[uri], set(holders), own, proxy, set(missing)
            )
        ]

    def may_send(self, uri: Uri, node: NodeId) -> bool:
        """Whether ``node`` holds ``uri`` (so it may send its candidate)."""
        return node in self.view.md_holders[uri]

    def has_candidates(self) -> bool:
        """Whether the clique has any candidate at all."""
        size = len(self._members)
        return any(len(holders) < size for __, holders in self.view.md_holders.items())

    def held_by(self, node: NodeId) -> int:
        """Candidates that list ``node`` among their holders."""
        size = len(self._members)
        return sum(
            1
            for __, holders in self.view.md_holders.items()
            if node in holders and len(holders) < size
        )


def build_metadata_candidates(
    states: Mapping[NodeId, NodeState],
    now: float,
    include_foreign: bool,
    view: Optional[CliqueView] = None,
) -> List[MetadataCandidate]:
    """Enumerate every useful metadata transmission in the clique.

    A record is a candidate when at least one member holds it and at
    least one member lacks it. Every URI of ``view`` (built on demand
    when absent) goes through one :class:`MetadataBuilder`, in
    popularity order. The result is order-independent — the canonical
    record per URI is picked deterministically (see
    :class:`~repro.core.cliqueview.CliqueView`) regardless of
    ``states`` iteration order.
    """
    if view is None:
        view = CliqueView(states, now)
    builder = MetadataBuilder(states, now, include_foreign, view)
    return [
        cand.freeze()
        for uri in view.popularity_order()
        for cand in builder.build(uri)
    ]


def build_metadata_candidates_reference(
    states: Mapping[NodeId, NodeState],
    now: float,
    include_foreign: bool,
) -> List[MetadataCandidate]:
    """Naive reference implementation of :func:`build_metadata_candidates`.

    Scans every member's full store and subset-tests every (member,
    record) pair. Kept as the specification the indexed builder is
    property-tested against (identical candidates on random cliques).
    """
    own_tokens = {n: s.own_query_tokens(now) for n, s in states.items()}
    if include_foreign:
        foreign_tokens = {n: s.foreign_query_tokens(now) for n, s in states.items()}
    else:
        foreign_tokens = {n: () for n in states}

    holders_by_uri: Dict[Uri, Set[NodeId]] = {}
    record_by_uri: Dict[Uri, Metadata] = {}
    for node in sorted(states):
        for record in states[node].metadata.records():
            if not record.is_live(now):
                continue
            holders_by_uri.setdefault(record.uri, set()).add(node)
            existing = record_by_uri.get(record.uri)
            if existing is None or record.popularity > existing.popularity:
                record_by_uri[record.uri] = record

    members = frozenset(states)
    candidates: List[MetadataCandidate] = []
    for uri, holders in holders_by_uri.items():
        missing = members - holders
        if not missing:
            continue
        record = record_by_uri[uri]
        own = frozenset(
            node
            for node in missing
            if any(tokens <= record.token_set for tokens in own_tokens[node])
        )
        proxy = frozenset(
            node
            for node in missing - own
            if any(tokens <= record.token_set for tokens in foreign_tokens[node])
        )
        candidates.append(
            MetadataCandidate(
                metadata=record,
                holders=frozenset(holders),
                own_requesters=own,
                proxy_requesters=proxy,
                missing=frozenset(missing),
            )
        )
    return candidates


def cooperative_rank_key(candidate: MetadataCandidate) -> Tuple:
    """Two-phase cooperative order (§IV-A).

    Requested records first — "those that match the query strings of
    more nodes themselves are sent [first]": records matching members'
    *own* queries outrank records only requested on behalf of absent
    frequent contacts. Popularity breaks ties; un-requested records
    follow in decreasing popularity. URI is the deterministic final
    tie-break, so keys are unique within a clique.

    Reads only the candidate's fields, so it ranks the protocol
    engine's :class:`ScheduledMetadata` as well as frozen candidates.
    """
    phase = 0 if (candidate.own_requesters or candidate.proxy_requesters) else 1
    return (
        phase,
        -len(candidate.own_requesters),
        -len(candidate.proxy_requesters),
        -candidate.metadata.popularity,
        candidate.metadata.uri,
    )


def tit_for_tat_rank_key(
    candidate: MetadataCandidate, sender: NodeState, now: float
) -> Tuple:
    """Credit-weighted order for a specific sender at time ``now`` (§IV-B).

    Primary key: the sum of the sender's credits for the requesters
    (reputation-weighted, decayed to ``now``, under the reputation
    policy). Requested records still precede un-requested at equal
    weight, and popularity breaks remaining ties.
    """
    weight = sender.credits.weight_of_requesters(candidate.requesters, now)
    phase = 0 if (candidate.own_requesters or candidate.proxy_requesters) else 1
    return (
        -weight,
        phase,
        -candidate.metadata.popularity,
        candidate.metadata.uri,
    )
