"""Keyword queries and matching semantics.

A query is the string a user types into the file-discovery process
(§III-B). We model it as a token set; a query *matches* a metadata when
every query token appears in the metadata's name tokens (classic
conjunctive keyword search). Queries carry their origin node and expiry
so delivery bookkeeping and TTL eviction are possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.catalog.metadata import Metadata
from repro.types import NodeId, Uri


@dataclass(frozen=True)
class Query:
    """A user's standing keyword query.

    Attributes
    ----------
    node:
        The node whose user issued the query.
    tokens:
        Conjunctive keyword set.
    target_uri:
        The file the user is actually after. Matching is still done by
        keywords — several metadata may match — but delivery metrics
        are judged against this ground-truth target.
    created_at, expires_at:
        Lifetime; a query dies with its target file's TTL.
    """

    node: NodeId
    tokens: FrozenSet[str]
    target_uri: Uri
    created_at: float
    expires_at: float

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("query needs at least one token")
        if self.expires_at <= self.created_at:
            raise ValueError("query must expire after creation")

    def is_live(self, now: float) -> bool:
        """Whether the query is still standing at ``now``."""
        return self.created_at <= now < self.expires_at

    def matches(self, metadata: Metadata) -> bool:
        """Conjunctive keyword match against a metadata record."""
        return self.tokens <= metadata.token_set


def matches(tokens: FrozenSet[str], metadata: Metadata) -> bool:
    """Module-level matching helper (tokens ⊆ metadata name tokens)."""
    return tokens <= metadata.token_set
