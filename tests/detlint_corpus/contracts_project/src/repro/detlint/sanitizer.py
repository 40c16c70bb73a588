"""CON002 fixture: a fingerprint-exclusion list drifted from the registry.

Missing ``perf.time_us.`` / ``perf.catalog.`` and stripping an alien
prefix the registry never marked excluded.
"""

from typing import Tuple

FINGERPRINT_IGNORED_PREFIXES: Tuple[str, ...] = (
    "detcheck.",
    "perf.wanted_cache_",
    "perf.query_cache_",
    "perf.meta_",
    "perf.piece_",
    "perf.alien.",  # detlint: ignore[CON001] -- deliberate drift under test
)
