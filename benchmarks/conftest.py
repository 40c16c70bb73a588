"""Shared helpers for the benchmarks.

``bench_claims.py`` checks the claims table
(:data:`repro.experiments.validation.CLAIMS`): it runs each panel under
``pytest-benchmark`` through :func:`bench_panel`, prints the series,
and asserts the panel's rows — who wins and which way the curves move.
Absolute values differ from the paper — the traces are synthetic
rebuilds — but the orderings and trends are the reproduction target
(see EXPERIMENTS.md).

Set ``REPRO_BENCH_JOBS=4`` to fan each panel's plain simulation runs out
over four worker processes through the shared kernel
(:mod:`repro.exec`); results are identical to serial, only the wall
clock moves.
"""

from __future__ import annotations

import os

from repro.experiments.sweep import SweepResult
from repro.experiments.validation import run_panel

#: Seeds averaged per Fig. 2/3 sweep cell in benchmarks (1 keeps CI
#: fast); the extension panels have fixed seeds.
BENCH_SEEDS = (0,)

#: Worker processes per panel (the kernel's ``jobs``), from the
#: environment so CI and local runs can scale without code changes.
def _bench_jobs() -> int:
    raw = os.environ.get("REPRO_BENCH_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise SystemExit(f"REPRO_BENCH_JOBS must be an integer, got {raw!r}") from None


BENCH_JOBS = _bench_jobs()


def bench_panel(benchmark, panel: str) -> SweepResult:
    """Benchmark one panel of the claims table and print its table."""
    result = benchmark.pedantic(
        lambda: run_panel(panel, "fast", BENCH_SEEDS, jobs=BENCH_JOBS),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.format_table())
    return result
