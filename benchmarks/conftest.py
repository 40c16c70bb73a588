"""Shared helpers for the benchmarks.

``bench_claims.py`` reproduces the paper's evaluation (§VI-B): it runs
each figure panel's parameter sweep under ``pytest-benchmark`` through
:func:`run_panel`, prints the series the paper plots, and asserts the
panel's rows of the paper-claims table
(:data:`repro.experiments.validation.CLAIMS`): who wins and which way
the curves move. Absolute values differ from the paper — the traces are
synthetic rebuilds — but the orderings and trends are the reproduction
target (see EXPERIMENTS.md).

All panels execute through the shared kernel (:mod:`repro.exec`); set
``REPRO_BENCH_JOBS=4`` to fan each sweep grid out over four worker
processes (results are identical to serial, only the wall clock moves).
"""

from __future__ import annotations

import os
from typing import Callable

from repro.experiments.sweep import SweepResult

#: Seeds averaged per sweep cell in benchmarks (1 keeps CI fast).
BENCH_SEEDS = (0,)

#: Worker processes per sweep grid (the kernel's ``jobs``), from the
#: environment so CI and local runs can scale without code changes.
def _bench_jobs() -> int:
    raw = os.environ.get("REPRO_BENCH_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise SystemExit(f"REPRO_BENCH_JOBS must be an integer, got {raw!r}") from None


BENCH_JOBS = _bench_jobs()


def run_panel(benchmark, figure: Callable[..., SweepResult]) -> SweepResult:
    """Benchmark one figure sweep (through the kernel) and print its table."""
    result = benchmark.pedantic(
        lambda: figure(scale="fast", seeds=BENCH_SEEDS, jobs=BENCH_JOBS),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.format_table())
    return result


def group_files(sim) -> tuple[float, float, int]:
    """File delivery ``(cooperators, riders, rider query count)`` of a run.

    Both groups leave out Internet-access nodes, so a free-rider's
    share is compared with that of the cooperators it depends on.
    """
    coop = frozenset(
        n for n in sim.states
        if n not in sim.adversary_nodes and n not in sim.access_nodes
    )
    riders = frozenset(
        n for n in sim.states
        if n in sim.adversary_nodes and n not in sim.access_nodes
    )
    __, coop_file, __ = sim.metrics.ratios_for(coop)
    __, rider_file, rider_count = sim.metrics.ratios_for(riders)
    return coop_file, rider_file, rider_count
