"""The runtime sanitizer: ``REPRO_DETCHECK=1`` / ``--detcheck``.

Where the static pass (:mod:`repro.detlint.checker`) catches
determinism hazards by their *syntax*, the sanitizer catches them by
their *effect*. :func:`checked_run` wraps one simulation and upgrades
the repository's hypothesis-only guarantees into an always-on smoke
check:

1. **Hash-seed pinning** — asserts ``PYTHONHASHSEED`` is pinned to an
   integer (exporting ``0`` when it was simply unset) and, after the
   run, that the value the simulation recorded into its
   ``detcheck.pythonhashseed`` counter matches the environment.
2. **Global-RNG isolation** — snapshots the ``random`` module's state
   and re-checks it after *every simulation event* (via the engine's
   event observer): the first event whose action consumes the global
   stream is reported by time and ordinal, not just "somewhere in the
   run".
3. **Double-run fingerprint cross-check** — executes the identical
   ``(trace, config)`` twice in-process and compares result
   fingerprints (``FINGERPRINT_IGNORED_PREFIXES`` excluded); any
   residual nondeterminism — iteration-order leaks, shared mutable
   state surviving between runs — fails loudly with the first
   differing key.

Enable it per-process with the ``REPRO_DETCHECK`` environment variable
(inherited by sweep workers, so ``run_many`` fan-outs are covered) or
per-invocation with the CLI ``--detcheck`` flag.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Optional, Tuple

from repro.contracts.counters import excluded_prefixes
from repro.detlint.hashseed import (
    UNPINNED,
    ensure_hash_seed,
    hash_seed_value,
    raw_hash_seed,
)
from repro.sim.metrics import SimulationResult
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import ContactTrace

#: Environment variable switching the sanitizer on ("1", "true", ...).
DETCHECK_ENV = "REPRO_DETCHECK"

#: ``extra`` keys excluded from fingerprints: the counter registry's
#: ``excluded`` families. Wall-clock phase timers differ between the two
#: runs by construction; the catalog, node cache and candidate counters
#: record implementation work that an optimisation leaving results
#: unchanged may move; the ``detcheck.`` attestation records the hash
#: seed the run executed under, which results must not depend on.
FINGERPRINT_IGNORED_PREFIXES: Tuple[str, ...] = excluded_prefixes()


class DeterminismError(RuntimeError):
    """A runtime determinism invariant was violated."""


def detcheck_enabled(env: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``REPRO_DETCHECK`` asks for sanitized runs."""
    mapping = os.environ if env is None else env
    return mapping.get(DETCHECK_ENV, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


def assert_hash_seed_pinned() -> int:
    """Pin ``PYTHONHASHSEED`` (exporting ``0`` when unset) or raise.

    An *unset* variable is repaired silently — child processes spawned
    afterwards inherit the pin. An explicit ``PYTHONHASHSEED=random``
    is a contradiction of the determinism contract and raises.
    """
    ensure_hash_seed()
    value = hash_seed_value()
    if value == UNPINNED:
        raise DeterminismError(
            f"PYTHONHASHSEED={raw_hash_seed()!r} requests per-process hash "
            "randomization; pin it to an integer (e.g. PYTHONHASHSEED=0) "
            "for detcheck runs"
        )
    return value


def result_fingerprint(result: SimulationResult) -> str:
    """Stable hex digest of everything a run's result asserts.

    Canonical JSON of :meth:`SimulationResult.to_dict` with the
    :data:`FINGERPRINT_IGNORED_PREFIXES` counters removed; equal fingerprints mean
    bitwise-equal observable results.
    """
    payload = result.to_dict()
    extra = payload.get("extra")
    if isinstance(extra, dict):
        payload["extra"] = {
            key: value
            for key, value in sorted(extra.items())
            if not key.startswith(FINGERPRINT_IGNORED_PREFIXES)
        }
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(encoded).hexdigest()


def _first_difference(a: SimulationResult, b: SimulationResult) -> str:
    """Human-readable description of the first differing result field."""
    da, db = a.to_dict(), b.to_dict()
    ea = da.pop("extra", {})
    eb = db.pop("extra", {})
    for key in sorted(da):
        if da[key] != db.get(key):
            return f"{key}: {da[key]!r} != {db.get(key)!r}"
    for key in sorted(set(ea) | set(eb)):
        if key.startswith(FINGERPRINT_IGNORED_PREFIXES):
            continue
        if ea.get(key) != eb.get(key):
            return f"extra[{key!r}]: {ea.get(key)!r} != {eb.get(key)!r}"
    return "fingerprints differ but no field does (serialization drift)"


class GlobalRngGuard:
    """Engine observer asserting the global ``random`` stream is idle.

    Installed on the engine via ``Simulation.run(event_observer=...)``;
    called after every executed event with ``(now, events_executed)``.
    The check is a state *comparison*, not a re-seed: simulations that
    legitimately own seeded private ``random.Random`` instances are
    unaffected.
    """

    def __init__(self) -> None:
        self._state = random.getstate()

    def __call__(self, now: float, events_executed: int) -> None:
        state = random.getstate()
        if state != self._state:
            raise DeterminismError(
                "the process-global random module was consumed during the "
                f"simulation (first detected after event #{events_executed} "
                f"at t={now:.3f}); simulation code must draw from an "
                "explicitly seeded random.Random instance (detlint DET001)"
            )


def verify_recorded_hash_seed(result: SimulationResult) -> None:
    """Check the run recorded the hash seed the environment pinned."""
    recorded = result.counters.get("detcheck.pythonhashseed")
    expected = hash_seed_value()
    if recorded is None:
        raise DeterminismError(
            "result carries no detcheck.pythonhashseed counter; the "
            "simulation runner did not record the pinned hash seed"
        )
    if recorded != expected:
        raise DeterminismError(
            f"result recorded PYTHONHASHSEED={recorded} but the environment "
            f"pins {expected}; the run predates the pin or crossed an "
            "environment boundary"
        )


def checked_run(
    trace: ContactTrace,
    config: SimulationConfig,
    *,
    runs: int = 2,
) -> SimulationResult:
    """Run ``(trace, config)`` under the full sanitizer and return it.

    Executes ``runs`` (default two) fresh, back-to-back simulations of
    the identical inputs with the global-RNG guard installed, verifies
    the recorded hash seed, and cross-checks the result fingerprints.
    Raises :class:`DeterminismError` on any violation; otherwise the
    first run's result is returned, so a sanitized path produces the
    exact result an unsanitized one would.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    assert_hash_seed_pinned()
    results = []
    for _ in range(runs):
        result = Simulation(trace, config).run(event_observer=GlobalRngGuard())
        verify_recorded_hash_seed(result)
        results.append(result)
    reference = result_fingerprint(results[0])
    for index, result in enumerate(results[1:], start=2):
        fingerprint = result_fingerprint(result)
        if fingerprint != reference:
            raise DeterminismError(
                f"detcheck double-run mismatch (run 1 vs run {index}): "
                f"{_first_difference(results[0], result)} — the simulation "
                "is not a pure function of (trace, config)"
            )
    return results[0]
