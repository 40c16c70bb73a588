"""Lightweight performance instrumentation for the contact hot path.

Two kinds of signals, with different determinism contracts:

* **Counters** — plain integers (index hits, cache misses, clique-view
  rebuilds). Always collected: they are deterministic functions of the
  simulation inputs, so they survive the serial-vs-parallel
  equality checks and are safe to include in
  :class:`~repro.sim.metrics.SimulationResult` counters.
* **Timers** — monotonic wall-clock phase accumulators. Only collected
  when profiling is explicitly enabled
  (:class:`~repro.sim.runner.SimulationConfig` ``profile=True`` or the
  CLI ``--profile`` flag), because wall-clock values differ between
  runs and would break result-equality invariants. They surface as
  integer microseconds under ``perf.time_us.<phase>``.

Everything lands in the ``perf.*`` counter namespace. Result fingerprints
strip the timers and the implementation-work counters (the sanitizer's
``FINGERPRINT_IGNORED_PREFIXES``); the other counters are result identity.
"""

from __future__ import annotations

import time
from typing import Dict

#: Prefix of every instrumentation counter in ``SimulationResult``.
PERF_PREFIX = "perf."


class PerfRecorder:
    """Accumulates ``perf.*`` counters and (optionally) phase timers.

    Designed for hot loops: :meth:`count` is a dict upsert, and the
    timer pair :meth:`start`/:meth:`stop` collapses to near-nothing
    when profiling is off (``start`` returns 0 and ``stop`` returns
    immediately).
    """

    __slots__ = ("profile", "counters", "_timers_ns")

    def __init__(self, profile: bool = False) -> None:
        self.profile = profile
        self.counters: Dict[str, int] = {}
        self._timers_ns: Dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the deterministic counter ``name``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def start(self) -> int:
        """Begin a timed span; returns an opaque token for :meth:`stop`."""
        if not self.profile:
            return 0
        return time.perf_counter_ns()

    def stop(self, phase: str, token: int) -> None:
        """Close a timed span opened by :meth:`start` under ``phase``."""
        if not token:
            return
        timers = self._timers_ns
        timers[phase] = timers.get(phase, 0) + time.perf_counter_ns() - token

    def merge(self, other: "PerfRecorder") -> None:
        """Fold another recorder's signals into this one."""
        for name, value in other.counters.items():
            self.count(name, value)
        for phase, ns in other._timers_ns.items():
            self._timers_ns[phase] = self._timers_ns.get(phase, 0) + ns

    def as_counters(self) -> Dict[str, int]:
        """All signals in the flat ``perf.*`` namespace.

        Timers are reported as integer microseconds under
        ``perf.time_us.<phase>`` so they fit the int-typed counter
        machinery; they are present only when profiling was enabled.
        """
        out = {PERF_PREFIX + name: value for name, value in self.counters.items()}
        for phase, ns in self._timers_ns.items():
            out[f"{PERF_PREFIX}time_us.{phase}"] = ns // 1000
        return out
