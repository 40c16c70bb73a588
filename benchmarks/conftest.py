"""Shared helpers for the figure-reproduction benchmarks.

Every ``bench_fig*`` module reproduces one panel of the paper's
evaluation (§VI-B): it runs the corresponding parameter sweep under
``pytest-benchmark``, prints the series the paper plots, and asserts
the qualitative *shape* the paper reports (who wins, which way the
curves move). Absolute values differ from the paper — the traces are
synthetic rebuilds — but the orderings and trends are the reproduction
target (see EXPERIMENTS.md).

All panels execute through the shared kernel (:mod:`repro.exec`); set
``REPRO_BENCH_JOBS=4`` to fan each sweep grid out over four worker
processes (results are identical to serial, only the wall clock moves).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

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

#: Tolerance for "A >= B" protocol-ordering assertions: a single-seed
#: cell can wobble a few percent, which is noise, not a shape change.
ORDER_TOLERANCE = 0.06


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


def assert_mostly_ordered(
    better: Sequence[float], worse: Sequence[float], tolerance: float = ORDER_TOLERANCE
) -> None:
    """Assert series ``better`` dominates ``worse`` up to noise.

    Every point must satisfy better >= worse − tolerance, and the
    series means must be ordered strictly.
    """
    assert len(better) == len(worse)
    for b, w in zip(better, worse):
        assert b >= w - tolerance, (better, worse)
    assert sum(better) >= sum(worse), (better, worse)


def assert_trend_up(series: Sequence[float], tolerance: float = ORDER_TOLERANCE) -> None:
    """Assert the series rises overall: last >> first and no big dips."""
    assert series[-1] >= series[0] - tolerance, series
    assert max(series) >= series[0], series


def assert_trend_down(series: Sequence[float], tolerance: float = ORDER_TOLERANCE) -> None:
    """Assert the series falls overall."""
    assert series[-1] <= series[0] + tolerance, series
    assert min(series) <= series[0], series


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
