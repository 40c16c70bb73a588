"""Expiry heap: O(log n) liveness maintenance for catalog stores.

The flat servers used to find expired records with a full-dict scan on
every ``expire`` call — O(catalog) per noon tick, a wall at the
million-file scale the ROADMAP targets. This helper replaces the scan
with a lazy-deletion min-heap keyed by ``(expires_at, key)``:

* ``push`` records a key's expiry instant when it is published;
* ``pop_due`` pops every entry whose instant has passed and asks the
  caller's ``expires_at_of`` lookup whether the key is *still* due —
  entries made stale by a re-publish with a longer TTL (or an earlier
  removal) are discarded without touching the store.

Cost per expire call is O(d log n) for d dead entries instead of
O(catalog); the heap never shrinks below the live store but stale
entries are bounded by the number of republishes.

Determinism: the heap orders by ``(expires_at, key)`` so keys sharing
an expiry instant (a daily batch) pop in lexicographic key order,
independent of publish order or hash seeding.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class ExpiryHeap:
    """Lazy-deletion min-heap of ``(expires_at, key)`` entries."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Tuple[float, str]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, key: str, expires_at: float) -> None:
        """Record that ``key`` expires at ``expires_at``.

        Pushing the same key again (re-publish) is fine: the stale
        entry is dropped by :meth:`pop_due`'s lookup cross-check.
        """
        heapq.heappush(self._heap, (expires_at, key))

    def pop_due(
        self,
        now: float,
        expires_at_of: Callable[[str], Optional[float]],
    ) -> List[str]:
        """Keys whose records are dead at ``now`` (``expires_at <= now``).

        ``expires_at_of`` maps a key to its *current* expiry instant,
        or ``None`` when the key no longer exists; it is the oracle
        that invalidates stale heap entries. Returned keys are unique
        and ordered by ``(expires_at, key)``.
        """
        heap = self._heap
        dead: List[str] = []
        while heap and heap[0][0] <= now:
            entry_expiry, key = heapq.heappop(heap)
            current = expires_at_of(key)
            if current is None:
                continue  # already removed; stale entry
            if current > now:
                continue  # re-published with a longer TTL; stale entry
            dead.append(key)
        if len(dead) > 1:
            # Duplicates from republished-then-expired keys can be
            # non-adjacent when expiry instants differ; dedup while
            # preserving first-occurrence order.
            seen = set()
            unique: List[str] = []
            for key in dead:
                if key not in seen:
                    seen.add(key)
                    unique.append(key)
            dead = unique
        return dead
