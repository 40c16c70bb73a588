"""The counter-key registry: every counter family and its fingerprint class.

``SimulationResult.extra`` is a flat string-keyed counter namespace
shared by the engine, the fault injector, the adversary harness, the
perf recorder and the detcheck sanitizer. Two properties hang off
the *spelling* of a key, so a typo silently creates a new counter:

* whether downstream equality checks treat it as part of the result
  (``fingerprint="deterministic"``) or exclude it from bitwise
  comparisons (``"excluded"``; :func:`excluded_prefixes` is what
  :mod:`repro.detlint.sanitizer` strips);
* whether ``--counters`` shows it (``surfaced=True``;
  :func:`surfaced_keys` is :data:`repro.sim.metrics.COUNTER_KEYS`).

Both are read from this registry at import time, so it is their only
written form. CON001 checks every counter-key string literal (and
every literal passed to a recorder's ``.count(...)``) against it. To
add a counter: append a :class:`CounterSpec` here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The counter namespaces. A string literal starting with one of these
#: roots is treated as a counter key by CON001.
NAMESPACE_ROOTS: Tuple[str, ...] = ("perf.", "faults.", "adversary.", "detcheck.")


@dataclass(frozen=True)
class CounterSpec:
    """One registered counter key (or, when ``key`` ends in ``.`` or
    ``_``, a registered key *prefix* used to build keys dynamically).

    ``fingerprint`` is the key's determinism class:

    ``"deterministic"``
        a pure function of the simulation inputs; safe inside result
        fingerprints and the serial-vs-parallel equality checks;
    ``"excluded"``
        varies between identical runs (wall-clock timers) or between
        implementations (catalog-server internals); stripped by
        :func:`repro.detlint.sanitizer.result_fingerprint`.

    ``open_prefix`` (prefixes only) allows unregistered exact keys
    beneath the prefix — for families whose suffixes are genuinely
    dynamic, like the per-phase ``perf.time_us.*`` timers.
    """

    key: str
    fingerprint: str  # "deterministic" | "excluded"
    surfaced: bool = False  # shown by --counters
    open_prefix: bool = False
    note: str = ""

    @property
    def is_prefix(self) -> bool:
        return self.key.endswith((".", "_"))


COUNTER_REGISTRY: Tuple[CounterSpec, ...] = (
    # -- engine counters (bare names) ---------------------------------------
    CounterSpec("events", "deterministic", surfaced=True),
    CounterSpec("events_noon", "deterministic", surfaced=True),
    CounterSpec("events_sync", "deterministic", surfaced=True),
    CounterSpec("events_contact", "deterministic", surfaced=True),
    CounterSpec("contacts_processed", "deterministic", surfaced=True),
    CounterSpec("contact_batches", "deterministic", surfaced=True),
    CounterSpec("cliques_processed", "deterministic", surfaced=True),
    CounterSpec("hello_exchanges", "deterministic", surfaced=True),
    CounterSpec("metadata_transmissions", "deterministic", surfaced=True),
    CounterSpec("piece_transmissions", "deterministic", surfaced=True),
    CounterSpec("choked_sends", "deterministic", surfaced=True),
    CounterSpec("internet_syncs", "deterministic", surfaced=True),
    CounterSpec("metadata_evictions", "deterministic", surfaced=True),
    CounterSpec("checksum_rejections", "deterministic", surfaced=True),
    CounterSpec("metadata_rejected_auth", "deterministic", surfaced=True),
    CounterSpec("events_fault", "deterministic", surfaced=True),
    # -- faults.* (deterministic fault-injection tallies) -------------------
    CounterSpec("faults.", "deterministic", note="fault-injection namespace"),
    CounterSpec("faults.contacts_dropped", "deterministic", surfaced=True),
    CounterSpec("faults.contacts_truncated", "deterministic", surfaced=True),
    CounterSpec("faults.contacts_skipped_down", "deterministic", surfaced=True),
    CounterSpec("faults.metadata_losses", "deterministic", surfaced=True),
    CounterSpec("faults.piece_losses", "deterministic", surfaced=True),
    CounterSpec("faults.pieces_corrupted", "deterministic", surfaced=True),
    CounterSpec("faults.corrupt_receipts", "deterministic", surfaced=True),
    CounterSpec("faults.crashes", "deterministic", surfaced=True),
    CounterSpec("faults.rebirths", "deterministic", surfaced=True),
    # -- adversary.* (strategy tallies + seeded assignment + ratios) --------
    CounterSpec("adversary.", "deterministic", note="adversarial-strategy namespace"),
    CounterSpec("adversary.nodes_", "deterministic", note="per-strategy node counts"),
    CounterSpec("adversary.holdings_hidden", "deterministic", surfaced=True),
    CounterSpec("adversary.turns_skipped", "deterministic", surfaced=True),
    CounterSpec("adversary.rewards_inflated", "deterministic", surfaced=True),
    CounterSpec("adversary.fakes_seeded", "deterministic", surfaced=True),
    CounterSpec("adversary.fake_metadata_transmissions", "deterministic", surfaced=True),
    CounterSpec("adversary.fake_piece_transmissions", "deterministic", surfaced=True),
    CounterSpec("adversary.nodes_exploiter", "deterministic", surfaced=True),
    CounterSpec("adversary.nodes_free_rider", "deterministic", surfaced=True),
    CounterSpec("adversary.nodes_polluter", "deterministic", surfaced=True),
    CounterSpec("adversary.nodes_under_reporter", "deterministic", surfaced=True),
    CounterSpec("adversary.honest_metadata_ratio", "deterministic"),
    CounterSpec("adversary.honest_file_ratio", "deterministic"),
    CounterSpec("adversary.honest_queries", "deterministic"),
    # -- detcheck.* (environment attestation) -------------------------------
    # The hash seed a run executed under describes its environment, not
    # its result: the same run must fingerprint alike under any seed, so
    # the family is excluded. verify_recorded_hash_seed reads it from
    # the result's counters directly.
    CounterSpec("detcheck.", "excluded", note="environment attestation"),
    CounterSpec("detcheck.pythonhashseed", "excluded", surfaced=True),
    # -- perf.* (advisory instrumentation; see repro.perf) ------------------
    # perf.wanted_cache_* / perf.query_cache_*: node cache hits and misses
    # count implementation work, like perf.catalog.*, so they are excluded.
    CounterSpec("perf.wanted_cache_", "excluded", note="node wanted-set cache"),
    CounterSpec("perf.wanted_cache_hits", "excluded"),
    CounterSpec("perf.wanted_cache_misses", "excluded"),
    CounterSpec("perf.query_cache_", "excluded", note="node live-query caches"),
    CounterSpec("perf.query_cache_hits", "excluded"),
    CounterSpec("perf.query_cache_misses", "excluded"),
    CounterSpec("perf.view_builds", "deterministic"),
    CounterSpec("perf.view_rebuilds", "deterministic"),
    CounterSpec("perf.view_reuses", "deterministic"),
    # perf.meta_candidates / perf.piece_candidates: candidates the
    # contact scheduler actually built. It builds lazily, so the counts
    # measure implementation work and are excluded.
    CounterSpec("perf.meta_", "excluded", note="metadata candidates built"),
    CounterSpec("perf.meta_candidates", "excluded"),
    CounterSpec("perf.piece_", "excluded", note="piece candidates built"),
    CounterSpec("perf.piece_candidates", "excluded"),
    # perf.time_us.*: wall-clock phase timers under --profile; suffixes
    # are phase names minted at the call site, so the family stays open.
    CounterSpec("perf.time_us.", "excluded", open_prefix=True, note="phase timers"),
    # perf.catalog.*: metadata-server internals. They count
    # implementation work (heap pops, ranked-view rebuilds), so a
    # server optimisation that leaves results unchanged must not move
    # fingerprints; the family is excluded.
    CounterSpec("perf.catalog.", "excluded", note="metadata-server internals"),
    CounterSpec("perf.catalog.heap_expiries", "excluded"),
    CounterSpec("perf.catalog.ranked_rebuilds", "excluded"),
)

#: Registered exact keys, by key.
COUNTER_KEYS_EXACT: Dict[str, CounterSpec] = {
    spec.key: spec for spec in COUNTER_REGISTRY if not spec.is_prefix
}

#: Registered prefixes, by prefix (namespace roots are implicit prefixes).
COUNTER_PREFIXES: Dict[str, CounterSpec] = {
    spec.key: spec for spec in COUNTER_REGISTRY if spec.is_prefix
}

#: Map from a recorder receiver name to the namespace its bare
#: ``.count("name")`` literals land in (see PerfRecorder.as_counters,
#: FaultInjector.snapshot, AdversaryHarness). ``self.count`` inside
#: the modules of :data:`SELF_RECORDER_MODULES` resolves the same way.
RECORDER_NAMESPACES: Dict[str, str] = {
    "perf": "perf.",
    "_perf": "perf.",
    "faults": "faults.",
    "_faults": "faults.",
    "adversary": "adversary.",
    "_adversary": "adversary.",
}

#: Path suffixes whose ``self.count("name")`` calls record into the
#: mapped namespace (the recorder classes themselves).
SELF_RECORDER_MODULES: Dict[str, str] = {
    "repro/faults.py": "faults.",
    "repro/core/strategies.py": "adversary.",
}


def excluded_prefixes() -> Tuple[str, ...]:
    """The prefixes the fingerprint sanitizer strips, sorted.

    Exactly the registered ``excluded`` prefixes: exact excluded keys
    are covered by their family prefix.
    """
    return tuple(
        sorted(
            spec.key
            for spec in COUNTER_PREFIXES.values()
            if spec.fingerprint == "excluded"
        )
    )


def surfaced_keys() -> Tuple[str, ...]:
    """Exact keys ``--counters`` shows, in registry order."""
    return tuple(
        spec.key for spec in COUNTER_REGISTRY if spec.surfaced and not spec.is_prefix
    )


def check_counter_key(key: str, *, prefix_only: bool = False) -> Optional[str]:
    """Problem description if ``key`` is not a registered counter key.

    ``prefix_only`` checks a *partial* key — the literal head of an
    f-string like ``f"faults.{name}"`` or a ``startswith`` probe — so
    only prefix/root registration counts.
    """
    if key.endswith((".", "_")) or prefix_only:
        if key in COUNTER_PREFIXES or key in NAMESPACE_ROOTS:
            return None
        return f"prefix {key!r} is not a registered counter prefix"
    if key in COUNTER_KEYS_EXACT:
        return None
    for prefix, spec in COUNTER_PREFIXES.items():
        if spec.open_prefix and key.startswith(prefix):
            return None
    return f"counter key {key!r} is not registered"
