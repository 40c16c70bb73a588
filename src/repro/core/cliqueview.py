"""Shared per-clique metadata view, reused across contact phases.

Both candidate builders (:class:`repro.core.discovery.MetadataBuilder`
and :class:`repro.core.download.PieceBuilder`) need the same facts
about a clique: which URIs have a live metadata record somewhere in
it, who holds one, which records match a given conjunctive token set,
and the URIs in decreasing popularity. Recomputing them for every
phase of every contact is the single largest cost in a campaign, so
:class:`CliqueView` computes them once per clique and the protocol
engine carries the view from the discovery phase into the download
phase of the same contact. The popularity order is the order in which
the scheduler streams the un-requested tail of both phases, so the
view sorts it once, on first use.

Canonical records
-----------------
Different members can hold different copies of the same URI (the
metadata server refreshes popularity, so copies drift). The view picks
one **canonical record per URI** by a deterministic rule — highest
popularity wins, ties resolved toward the copy held by the
lowest-numbered member — which makes candidate construction
independent of ``states`` dict insertion order (previously it was
last-writer-wins over whatever order the mapping happened to iterate).

Incremental maintenance
-----------------------
Metadata transmissions during the discovery phase add holders; the
engine reports them via :meth:`note_holder`, which is exact. The one
event the view cannot patch incrementally is an *eviction* on a
receiving store (a bounded store displacing some other record); the
engine calls :meth:`mark_dirty` and the next :meth:`refresh` rebuilds
the view from scratch. Evictions mid-contact are rare, so the common
case stays O(transmissions).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from repro.catalog.metadata import Metadata
from repro.core.node import NodeState
from repro.types import NodeId, Uri


class CliqueView:
    """Canonical live-metadata map of one clique at one instant."""

    __slots__ = (
        "states",
        "now",
        "record_by_uri",
        "md_holders",
        "_token_index",
        "_match_cache",
        "_order",
        "_dirty",
        "rebuilds",
    )

    def __init__(self, states: Mapping[NodeId, NodeState], now: float) -> None:
        self.states = states
        self.now = now
        #: Canonical live record per URI (see module docstring).
        self.record_by_uri: Dict[Uri, Metadata] = {}
        #: Members holding a live record of each URI.
        self.md_holders: Dict[Uri, Set[NodeId]] = {}
        self._token_index: Dict[str, Set[Uri]] = {}
        self._dirty = False
        #: Full rebuilds forced by mid-contact evictions.
        self.rebuilds = 0
        self._build()

    def _build(self) -> None:
        record_by_uri: Dict[Uri, Metadata] = {}
        md_holders: Dict[Uri, Set[NodeId]] = {}
        now = self.now
        # Sorted member order makes the canonical tie-break (first
        # holder at max popularity) independent of dict insertion order.
        for node in sorted(self.states):
            for record in self.states[node].metadata.records():
                # record.is_live(now), inlined: this loop touches every
                # record of every member store once per contact.
                if now >= record.expires_at:
                    continue
                uri = record.uri
                holders = md_holders.get(uri)
                if holders is None:
                    md_holders[uri] = {node}
                    record_by_uri[uri] = record
                else:
                    holders.add(node)
                    if record.popularity > record_by_uri[uri].popularity:
                        record_by_uri[uri] = record
        token_index: Dict[str, Set[Uri]] = {}
        for uri, record in record_by_uri.items():
            for token in record.token_set:
                token_index.setdefault(token, set()).add(uri)
        self.record_by_uri = record_by_uri
        self.md_holders = md_holders
        self._token_index = token_index
        self._match_cache = {}
        self._order: Optional[List[Uri]] = None
        self._dirty = False

    # -- queries --------------------------------------------------------------

    def matching_uris(self, tokens: FrozenSet[str]) -> Set[Uri]:
        """Clique URIs whose canonical record matches ``tokens``.

        Conjunctive match via the clique-level inverted token index:
        intersection of per-token posting sets, smallest first. Results
        are memoized per token set for the view's lifetime (several
        members often advertise the same query); callers must treat the
        returned set as read-only.
        """
        cached = self._match_cache.get(tokens)
        if cached is not None:
            return cached
        postings = []
        for token in tokens:
            posting = self._token_index.get(token)
            if not posting:
                self._match_cache[tokens] = empty = set()
                return empty
            postings.append(posting)
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        self._match_cache[tokens] = result
        return result

    def matched_uris(self, token_sets: Iterable[FrozenSet[str]]) -> Set[Uri]:
        """Union of :meth:`matching_uris` over several token sets."""
        out: Set[Uri] = set()
        for tokens in token_sets:
            out |= self.matching_uris(tokens)
        return out

    def popularity_order(self) -> List[Uri]:
        """Clique URIs by decreasing canonical popularity, URI breaking ties.

        The order of the un-requested candidates under both phases'
        rank keys. Sorted on first use and kept until the next rebuild;
        callers must treat the list as read-only.
        """
        if self._order is None:
            records = self.record_by_uri
            self._order = sorted(records, key=lambda uri: (-records[uri].popularity, uri))
        return self._order

    # -- incremental updates ---------------------------------------------------

    def note_holder(self, node: NodeId, record: Metadata) -> None:
        """Record that ``node`` now stores ``record`` (after a transmission).

        Transmissions deliver the canonical copy, so holder-set growth
        is the only update needed for known URIs.
        """
        uri = record.uri
        holders = self.md_holders.get(uri)
        if holders is None:
            self.md_holders[uri] = {node}
            self.record_by_uri[uri] = record
            for token in record.token_set:
                self._token_index.setdefault(token, set()).add(uri)
            self._match_cache = {}  # the token index changed
            self._order = None
        else:
            holders.add(node)

    def mark_dirty(self) -> None:
        """Flag that a member store changed in a way the view cannot patch."""
        self._dirty = True

    def refresh(self) -> bool:
        """Rebuild if dirty; returns True when a rebuild happened."""
        if not self._dirty:
            return False
        self._build()
        self.rebuilds += 1
        return True
