"""Record the repository's performance baseline into ``BENCH_core.json``.

Runs the core benchmark workloads — ``bench_runtime`` (simulator +
wire-level runtime on the DieselNet and NUS fast traces),
``bench_parallel_sweep`` (one DieselNet sweep grid through
:func:`repro.exec.run_many`), ``bench_trace_gen`` (grid-vs-reference
contact extraction plus a cold/warm disk-cache round trip) and
``bench_catalog`` (DHT-sharded vs flat metadata server on the
million-file Internet-side campaign) — and writes
a JSON record of wall-clock times, simulator events/s and any
``perf.*`` instrumentation counters the engine exposes. The committed ``BENCH_core.json`` is the trajectory
anchor every perf claim in this repository is measured against.

Timing numbers are only comparable between machines with the same core
count, so measurements are keyed by core count: recording on an N-core
machine updates the ``by_cores[N]`` entry and leaves entries recorded
on other machines untouched. The CI perf smoke (``--compare``) looks up
the entry matching the runner's own core count and *skips with a
warning* when none was ever recorded, instead of false-failing against
numbers from different hardware (a 1-core runner once "regressed" 0.86x
against a 4-core record purely because ``run_many`` fell back to
inline mode).

Usage
-----
::

    # Measure and write a fresh baseline (optionally embedding an older
    # measurement as the pre-change reference):
    PYTHONPATH=src python benchmarks/record_baseline.py --out BENCH_core.json \
        [--baseline old.json] [--label "post-index"]

    # CI perf smoke: re-measure the fast workloads and compare events/s
    # against the committed record; warns (exit 0) on >25% regression:
    PYTHONPATH=src python benchmarks/record_baseline.py --compare BENCH_core.json

The comparison is advisory: CI hardware varies run to run, so a
regression prints a GitHub ``::warning::`` annotation instead of
failing the build.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Dict

SCHEMA = 2
DEFAULT_WARN_THRESHOLD = 0.25

#: Best-of-N repetitions for the simulator wall-clock numbers. A single
#: shot once recorded a phantom 0.87x "regression" that was pure
#: scheduler noise; the minimum over a few runs is the stable statistic.
SIM_REPEATS = 3


def _perf_counters(result) -> Dict[str, int]:
    """The ``perf.*`` subset of a result's counters (empty pre-index)."""
    try:
        counters = result.counters
    except AttributeError:
        return {}
    return {k: v for k, v in counters.items() if k.startswith("perf.")}


def measure_bench_runtime() -> Dict[str, Any]:
    """bench_runtime's workloads: simulator + runtime on both traces."""
    from repro.experiments.workloads import (
        dieselnet_base_config,
        dieselnet_trace,
        nus_base_config,
        nus_trace,
    )
    from repro.runtime import RuntimeHarness
    from repro.sim.runner import Simulation

    cases = {
        "dieselnet": (dieselnet_trace("fast", 0), dieselnet_base_config(0)),
        "nus": (nus_trace("fast", 0), nus_base_config(0)),
    }
    out: Dict[str, Any] = {"sim_repeats": SIM_REPEATS}
    total_events = 0.0
    total_sim_s = 0.0
    perf: Dict[str, int] = {}
    for name, (trace, config) in cases.items():
        sim_s = float("inf")
        for _ in range(SIM_REPEATS):
            t0 = time.perf_counter()
            sim_result = Simulation(trace, config).run()
            sim_s = min(sim_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        runtime_result = RuntimeHarness(trace, config).run()
        runtime_s = time.perf_counter() - t0
        events = float(sim_result.extra.get("events", 0.0))
        total_events += events
        total_sim_s += sim_s
        for key, value in _perf_counters(sim_result).items():
            perf[key] = perf.get(key, 0) + value
        out[name] = {
            "sim_wall_s": round(sim_s, 4),
            "runtime_wall_s": round(runtime_s, 4),
            "events": int(events),
            "events_per_s": round(events / sim_s, 1) if sim_s > 0 else 0.0,
            "metadata_delivery_ratio": round(sim_result.metadata_delivery_ratio, 6),
            "file_delivery_ratio": round(sim_result.file_delivery_ratio, 6),
            "runtime_metadata_delivery_ratio": round(
                runtime_result.metadata_delivery_ratio, 6
            ),
            "runtime_file_delivery_ratio": round(
                runtime_result.file_delivery_ratio, 6
            ),
        }
    out["events_per_s"] = (
        round(total_events / total_sim_s, 1) if total_sim_s > 0 else 0.0
    )
    if perf:
        out["perf_counters"] = perf
    return out


def measure_parallel_sweep(jobs: int = 4) -> Dict[str, Any]:
    """bench_parallel_sweep's grid, serial and with worker processes."""
    import os

    from bench_parallel_sweep import _grid_specs
    from repro.exec import resolve_execution_mode, run_many

    specs = _grid_specs()
    t0 = time.perf_counter()
    run_many(specs, jobs=1)
    serial_s = time.perf_counter() - t0
    mode, effective_jobs = resolve_execution_mode(jobs)
    t0 = time.perf_counter()
    run_many(specs, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    return {
        "runs": len(specs),
        "jobs": jobs,
        # What "auto" actually chose: "inline" on single-core machines
        # (no pool, no pickling), "processes" elsewhere. Explains a
        # ~1.0x "speedup" honestly instead of recording pool overhead.
        "mode": mode,
        "effective_jobs": effective_jobs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s > 0 else 0.0,
        "cores": os.cpu_count() or 1,
    }


def measure_trace_gen() -> Dict[str, Any]:
    """bench_trace_gen: grid-vs-reference extraction + disk-cache round trip."""
    import tempfile

    from bench_trace_gen import DEFAULT, SCALED, cache_timings, extraction_timings

    with tempfile.TemporaryDirectory() as cache_dir:
        return {
            "extraction_scaled": extraction_timings(SCALED),
            "extraction_default": extraction_timings(DEFAULT),
            "disk_cache": cache_timings(cache_dir),
        }


def measure_catalog() -> Dict[str, Any]:
    """bench_catalog: sharded-vs-flat server at the million-file scale."""
    from bench_catalog import FULL_FILES, FULL_NODES, measure_catalog as _measure

    return _measure(FULL_FILES, FULL_NODES)


def measure(label: str, quick: bool = False) -> Dict[str, Any]:
    import os

    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "label": label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Recorded at the top level: every speedup claim below is only
        # comparable across machines with the same core count.
        "cores": os.cpu_count() or 1,
        "bench_runtime": measure_bench_runtime(),
    }
    if not quick:
        record["bench_parallel_sweep"] = measure_parallel_sweep()
        record["bench_trace_gen"] = measure_trace_gen()
        record["bench_catalog"] = measure_catalog()
    return record


def _reference_for_cores(recorded: Dict[str, Any], cores: int):
    """The recorded entry matching ``cores``, or ``None`` if no match.

    Schema 2 records keep one measurement per core count under
    ``by_cores``; schema 1 records had a single ``current`` whose
    ``cores`` field (when present) says what machine it came from.
    """
    by_cores = recorded.get("by_cores")
    if isinstance(by_cores, dict):
        return by_cores.get(str(cores))
    reference = recorded.get("current", recorded)
    ref_cores = reference.get("cores") or reference.get(
        "bench_parallel_sweep", {}
    ).get("cores")
    if ref_cores is not None and int(ref_cores) != cores:
        return None
    return reference


def compare(path: str, threshold: float) -> int:
    """Re-measure the fast workloads and warn on an events/s regression."""
    import os

    with open(path, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    # Scale awareness: wall-clock numbers from a machine with a
    # different core count are not a baseline for this one — skip with
    # a warning rather than false-fail (ROADMAP item 5: a 1-core
    # runner once "regressed" 0.86x against a 4-core record).
    cores = os.cpu_count() or 1
    reference = _reference_for_cores(recorded, cores)
    if reference is None:
        print(
            f"::warning title=perf smoke skipped::no recorded baseline for "
            f"{cores}-core machines in {path}; timings from other core "
            f"counts are not comparable. Record one with "
            f"record_baseline.py --out on matching hardware."
        )
        _compare_trace_gen({}, threshold)
        return 0
    ref_eps = float(reference["bench_runtime"]["events_per_s"])
    fresh = measure_bench_runtime()
    eps = float(fresh["events_per_s"])
    ratio = eps / ref_eps if ref_eps > 0 else float("inf")
    print(
        f"perf smoke: measured {eps:.1f} events/s vs recorded "
        f"{ref_eps:.1f} events/s ({ratio:.2f}x)"
    )
    if ratio < 1.0 - threshold:
        # Non-blocking: hardware varies across CI runners, so this is an
        # annotation for a human to look at, not a gate.
        print(
            f"::warning title=perf regression::bench_runtime events/s dropped to "
            f"{ratio:.2f}x of the recorded baseline "
            f"({eps:.1f} vs {ref_eps:.1f}; threshold {1.0 - threshold:.2f}x)"
        )
    _compare_trace_gen(reference, threshold)
    return 0


def _compare_trace_gen(reference: Dict[str, Any], threshold: float) -> None:
    """Advisory trace-pipeline smoke: extraction speed + cache round trip.

    The cold-then-warm cache invocation is the real gate here — its
    internal bitwise-identity assertions prove the disk cache
    round-trips on this machine; the timing comparison only warns.
    """
    import tempfile

    from bench_trace_gen import SCALED, cache_timings, extraction_timings

    fresh = extraction_timings(SCALED)
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = cache_timings(cache_dir)
    print(
        f"trace-gen smoke: grid extraction {fresh['grid_s']:.2f}s "
        f"({fresh['speedup']:.2f}x vs reference); disk cache cold "
        f"{cache['cold_s']:.2f}s -> warm {cache['warm_s']:.4f}s"
    )
    recorded = reference.get("bench_trace_gen", {}).get("extraction_scaled")
    if not recorded:
        return
    ref_grid_s = float(recorded["grid_s"])
    if ref_grid_s > 0 and fresh["grid_s"] > ref_grid_s * (1.0 + threshold):
        print(
            f"::warning title=trace-gen regression::grid extraction took "
            f"{fresh['grid_s']:.2f}s vs recorded {ref_grid_s:.2f}s "
            f"(> {1.0 + threshold:.2f}x)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the measurement to this JSON file")
    parser.add_argument(
        "--baseline",
        help="embed a previously recorded measurement file as the "
        "pre-change baseline section",
    )
    parser.add_argument("--label", default="current", help="measurement label")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the parallel-sweep measurement (CI smoke)",
    )
    parser.add_argument(
        "--compare",
        metavar="BENCH_JSON",
        help="compare fresh events/s against a recorded file and warn on "
        "regression instead of recording",
    )
    parser.add_argument(
        "--warn-threshold",
        type=float,
        default=DEFAULT_WARN_THRESHOLD,
        help="fractional events/s drop that triggers the warning "
        f"(default {DEFAULT_WARN_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare, args.warn_threshold)

    record = measure(args.label, quick=args.quick)
    payload: Dict[str, Any] = {"schema": SCHEMA, "current": record}
    # Per-core-count baselines: keep one entry per machine size, so a
    # record taken on a laptop never overwrites the CI runner's numbers
    # (and vice versa). Entries from other core counts in an existing
    # --out file are carried forward.
    by_cores: Dict[str, Any] = {}
    if args.out:
        try:
            with open(args.out, "r", encoding="utf-8") as handle:
                previous = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            previous = {}
        existing = previous.get("by_cores")
        if isinstance(existing, dict):
            by_cores.update(existing)
        elif "current" in previous:
            # Schema 1 migration: file the old single record under the
            # core count it says it was measured on.
            old = previous["current"]
            old_cores = old.get("cores") or old.get(
                "bench_parallel_sweep", {}
            ).get("cores")
            if old_cores is not None:
                by_cores[str(int(old_cores))] = old
    by_cores[str(record["cores"])] = record
    payload["by_cores"] = by_cores
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        payload["baseline"] = baseline.get("current", baseline)
        base_eps = float(payload["baseline"]["bench_runtime"]["events_per_s"])
        cur_eps = float(record["bench_runtime"]["events_per_s"])
        payload["events_per_s_speedup"] = (
            round(cur_eps / base_eps, 2) if base_eps > 0 else None
        )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written to {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "benchmarks")
    sys.exit(main())
