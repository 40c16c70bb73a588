"""Discrete-event simulation substrate.

This package contains the generic machinery that drives every
experiment in the reproduction:

* :mod:`repro.sim.engine` — a deterministic discrete-event engine.
* :mod:`repro.sim.spacetime` — space-time graph queries over a contact
  trace (earliest arrival, reachability, delivery upper bounds).
* :mod:`repro.sim.metrics` — per-query delivery bookkeeping.
* :mod:`repro.sim.runner` — the end-to-end simulation that wires traces,
  the Internet-side catalog and the MBT protocol engine together.
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.metrics import MetricsCollector, QueryRecord, SimulationResult
from repro.sim.spacetime import (
    JourneyResult,
    earliest_arrival,
    oracle_file_delivery_bound,
    pairwise_delays,
    reachability_ratio,
)

# The runner module imports the protocol engine, which itself imports
# repro.sim.metrics; loading it lazily keeps this package importable
# from repro.core without a circular import.
_LAZY = {"Simulation", "SimulationConfig", "run_simulation"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.sim import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "JourneyResult",
    "earliest_arrival",
    "oracle_file_delivery_bound",
    "pairwise_delays",
    "reachability_ratio",
    "MetricsCollector",
    "QueryRecord",
    "SimulationResult",
    "Simulation",
    "SimulationConfig",
]
