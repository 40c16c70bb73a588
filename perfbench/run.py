"""Benchmark of record: paper-scale MBT workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload nus-tft --seed 1 --seconds 60 --trace 0

Workloads (see ``perfbench/METHOD.md`` for why each was chosen):

* ``dieselnet``   -- 40-bus x 20-day DieselNet trace, MBT, §VI-A defaults
  (runnable, but not in ``BENCHMARK.json``: see ``METHOD.md``);
* ``nus-tft``     -- 120-student x 20-day NUS trace, MBT with tit-for-tat;
* ``fig3a-sweep`` -- paper-scale Fig. 3(a) grid through ``repro.exec.run_many``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (see ``layers.py``), turns on the program's
``profile`` phase timers and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every simulation's output is
checked; a failed check counts in ``failed``.

``wall_s`` and ``setup_s`` are scaled to a fixed host speed, measured by
:func:`reference_once` next to the work it scales; the ``# host`` line
before the JSON gives the unscaled figures (see ``METHOD.md``, Noise).
"""

from __future__ import annotations

import argparse
import functools
import gc
import heapq
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Sweep workers: the machine of record has two cores.
JOBS = 2
#: Marks the re-executed interpreter whose environment is pinned.
PINNED_ENV = "PERFBENCH_PINNED"
#: Coverage below this share of wall time is flagged (ROADMAP item 1).
COVERAGE_FLOOR = 0.95
#: Host seconds :func:`reference_once` takes at the speed timings are
#: scaled to (see ``METHOD.md``, Noise).
REFERENCE_S = 0.006
#: Attribute under which a sweep worker returns its reference time on the RunResult.
REFERENCE_ATTR = "_perfbench_reference_s"


def pin_environment() -> None:
    """Re-execute under a fixed hash seed with the program's caches off.

    ``PYTHONHASHSEED`` only takes effect at interpreter start. The disk
    trace cache and the detcheck double run are switched off, so no
    run depends on what an earlier one left behind.
    """
    if os.environ.get(PINNED_ENV) == "1":
        return
    env = dict(os.environ)
    for name in ("REPRO_TRACE_CACHE", "REPRO_DETCHECK"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env[PINNED_ENV] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


@dataclass
class Unit:
    """One timed unit of work: a simulation, or a whole sweep."""

    #: Host seconds from the first event to the result (sweep: run_many).
    wall: float
    #: Wall including trace build and set-up (the coverage denominator).
    full_wall: float
    #: ``(label, result)`` per simulation that returned.
    results: List[Tuple[Tuple, object]]
    #: Simulations that raised.
    errors: int = 0
    #: Sum of per-spec ``RunResult.wall_time`` (sweeps only).
    busy: float = 0.0
    #: Spans shipped back by sweep workers.
    worker_spans: List[Dict[str, List[int]]] = field(default_factory=list)
    #: :func:`reference_once` times taken just before each simulation,
    #: in the process that ran it.
    references: List[float] = field(default_factory=list)


def dieselnet_inputs(seed: int):
    """DieselNet at paper scale under MBT with the §VI-A defaults."""
    from repro.experiments import workloads

    return workloads.dieselnet_trace("paper", seed), workloads.dieselnet_base_config(seed)


def nus_tft_inputs(seed: int):
    """NUS at paper scale under MBT with tit-for-tat (cyclic scheduling)."""
    from repro.experiments import workloads

    return workloads.nus_trace("paper", seed), replace(workloads.nus_base_config(seed), tit_for_tat=True)


class SimWorkload:
    """A workload whose unit is one simulation of a seeded input."""

    def __init__(self, name: str, inputs, setup_burst: int) -> None:
        self.name = name
        self.inputs = inputs
        #: Set-ups timed before each simulation; ``setup_s`` is their median.
        self.setup_burst = setup_burst

    def setup_once(self, seed: int) -> None:
        from repro.sim.runner import Simulation

        Simulation(*self.inputs(seed))

    def run(self, seed: int, profile: bool) -> Unit:
        from repro.sim.runner import Simulation

        reference = timed_reference()
        start = time.perf_counter()
        try:
            trace, config = self.inputs(seed)
            sim = Simulation(trace, replace(config, profile=profile))
            first_event = time.perf_counter()
            result = sim.run()
        except Exception as exc:  # counted as a failed simulation
            print(f"# {self.name} seed {seed} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            return Unit(elapsed, elapsed, [], errors=1, references=[reference])
        end = time.perf_counter()
        return Unit(end - first_event, end - start, [((), result)], references=[reference])


def _execute_after_reference(original):
    """``repro.exec.execute`` that times :func:`reference_once` first.

    The time travels back on the ``RunResult``, so each sweep cell is
    paired with the host's speed on the worker, at the moment it ran.
    """

    @functools.wraps(original)
    def execute(spec):
        reference = timed_reference()
        run = original(spec)
        object.__setattr__(run, REFERENCE_ATTR, reference)
        return run

    return execute


class SweepWorkload:
    """Fig. 3(a) at paper scale, fanned out by ``repro.exec.run_many``."""

    name = "fig3a-sweep"
    setup_burst = 10

    @staticmethod
    def specs(seed: int, profile: bool = False):
        """The grid ``repro.experiments.figures.fig3a`` runs, at paper scale."""
        from repro.experiments import figures, workloads
        from repro.experiments.sweep import sweep_specs

        base = replace(workloads.nus_base_config(), profile=profile)
        return sweep_specs(
            figures.ACCESS_FRACTIONS, figures._nus_spec("paper"), figures._sweep_access, base, seeds=(seed,)
        )

    def setup_once(self, seed: int) -> None:
        from repro.sim.runner import Simulation

        specs = self.specs(seed)
        Simulation(specs[0].trace.build(), specs[-1].resolved_config())

    def run(self, seed: int, profile: bool) -> Unit:
        import repro.exec
        from repro.exec import RunError, kernel
        from layers import SPANS_ATTR

        specs = self.specs(seed, profile)
        repro.exec.trace_cache_clear()  # every sweep starts with cold worker caches
        original = kernel.execute
        # run_many hands workers ``execute`` by name; forked workers inherit the rebinding.
        kernel.execute = _execute_after_reference(original)
        try:
            start = time.perf_counter()
            runs = repro.exec.run_many(specs, jobs=JOBS, on_error="collect")
            wall = time.perf_counter() - start
        finally:
            kernel.execute = original
        unit = Unit(wall, wall, [])
        for run in runs:
            if isinstance(run, RunError):
                print(f"# sweep spec {run.labels()} failed: {run.error}", file=sys.stderr)
                unit.errors += 1
                continue
            unit.results.append((run.spec.tag, run.result))
            unit.busy += run.wall_time
            unit.references.append(getattr(run, REFERENCE_ATTR))
            spans = getattr(run, SPANS_ATTR, None)
            if spans is not None:
                unit.worker_spans.append(spans)
        return unit


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("dieselnet", dieselnet_inputs, setup_burst=6),
        SimWorkload("nus-tft", nus_tft_inputs, setup_burst=4),
        SweepWorkload(),
    )
}


class Checker:
    """Output checks; every simulation that fails one counts as failed."""

    def __init__(self) -> None:
        from repro.detlint.sanitizer import result_fingerprint

        self._fingerprint = result_fingerprint
        #: First ``(fingerprint, result)`` seen per spec label.
        self.first: Dict[Tuple, Tuple[str, object]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, unit: Unit) -> None:
        self.attempted += len(unit.results) + unit.errors
        self.failed += unit.errors
        for label, result in unit.results:
            problems = []
            ratios = (
                result.metadata_delivery_ratio,
                result.file_delivery_ratio,
                result.access_metadata_delivery_ratio,
                result.access_file_delivery_ratio,
            )
            if not all(0.0 <= r <= 1.0 for r in ratios):
                problems.append(f"ratio outside [0, 1]: {ratios}")
            fingerprint = self._fingerprint(result)
            if self.first.setdefault(label, (fingerprint, result))[0] != fingerprint:
                problems.append("fingerprint differs from an earlier simulation of the same input")
            if problems:
                self.failed += 1
                print(f"# check failed for {label}: {'; '.join(problems)}", file=sys.stderr)
        self.failed += self._ordering_violations(unit)

    @staticmethod
    def _ordering_violations(unit: Unit) -> int:
        """Sweeps: MBT >= MBT-QM file delivery at every access fraction."""
        cells = {}
        for label, result in unit.results:
            tags = dict(label)
            if "protocol" in tags:
                cells[(tags["x"], tags["protocol"])] = result.file_delivery_ratio
        violations = 0
        for (x, protocol), qm in cells.items():
            if protocol == "mbt-qm" and cells.get((x, "mbt"), qm) < qm:
                print(f"# check failed: MBT < MBT-QM file delivery at access {x}", file=sys.stderr)
                violations += 1
        return violations

    def mean_ratio(self, attr: str) -> float:
        return statistics.fmean(getattr(result, attr) for __, result in self.first.values())


class _Entry:
    __slots__ = ("key", "count", "seen")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0
        self.seen: set = set()


def reference_once() -> int:
    """Fixed pure-Python work that no change to the program can speed up.

    It mixes what the simulator's hot path does (dict lookups, small
    objects, sets, a heap, a keyed sort), so the host's slow phases slow
    it about as much as they slow a simulation.
    """
    rng = random.Random(7)
    table: Dict[int, _Entry] = {}
    heap: List[Tuple[float, int, int]] = []
    for i in range(4000):
        key = rng.randrange(400)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        entry.count += 1
        entry.seen.add(i % 53)
        heapq.heappush(heap, (rng.random(), i, key))
    ranked = sorted(table.values(), key=lambda e: (-e.count, len(e.seen), e.key))
    total = 0
    while heap:
        total += heapq.heappop(heap)[2]
    return total + ranked[0].key


def timed_reference() -> float:
    start = time.perf_counter()
    reference_once()
    return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, checker: Checker, profile: bool,
            min_units: int, budget_start: float, max_units: Optional[int] = None,
            setups: Optional[List[float]] = None, references: Optional[List[float]] = None) -> List[Unit]:
    """Repeat the workload's unit until the budget is spent.

    At least ``min_units`` run; after that a unit starts only if one
    more step, at the last step's duration, still ends within
    ``seconds``. With ``setups`` (and ``references``), each step first
    times a burst of set-ups, each followed by one :func:`reference_once`,
    so both are sampled in the same moments, spread over the whole run.
    Every burst and unit starts from a collected heap, so none pays for
    the garbage an earlier one left.
    """
    units: List[Unit] = []
    step = 0.0
    while len(units) != max_units:
        spent = time.perf_counter() - budget_start
        if len(units) >= min_units and spent + step > seconds:
            break
        gc.collect()
        for __ in range(workload.setup_burst if setups is not None else 0):
            start = time.perf_counter()
            workload.setup_once(seed)
            setups.append(time.perf_counter() - start)
            references.append(timed_reference())
        gc.collect()
        unit = workload.run(seed, profile)
        checker.check(unit)
        units.append(unit)
        step = time.perf_counter() - budget_start - spent
    return units


def peak_rss_mb() -> float:
    """Peak resident memory of the largest process: this one or a sweep worker.

    Forked workers' peaks count the parent pages they inherited, so a
    sum over processes would count those pages once per process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, seed: int, seconds: float, checker: Checker) -> Dict[str, Tuple[float, str]]:
    setups: List[float] = []
    references: List[float] = []
    units = measure(workload, seed, seconds, checker, False, 2, time.perf_counter(), setups=setups,
                    references=references)
    wall = statistics.median(u.wall for u in units)
    wall_reference = statistics.median(r for u in units for r in u.references)
    setup = statistics.median(setups)
    setup_reference = statistics.median(references)
    print("# host " + json.dumps({
        "wall_s": wall, "wall_reference_s": wall_reference, "units": len(units),
        "setup_s": setup, "setup_reference_s": setup_reference, "setups": len(setups),
    }))
    # Host seconds scaled to the speed at which the reference takes
    # REFERENCE_S: the host's speed drifts by up to 2x over minutes.
    return {
        "wall_s": (wall * REFERENCE_S / wall_reference, "s"),
        "setup_s": (setup * REFERENCE_S / setup_reference, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "metadata_delivery_ratio": (checker.mean_ratio("metadata_delivery_ratio"), "ratio"),
        "file_delivery_ratio": (checker.mean_ratio("file_delivery_ratio"), "ratio"),
        "ok_sim_ratio": (1.0 - checker.failed / max(1, checker.attempted), "ratio"),
    }


def per_layer(workload, seed: int, seconds: float, checker: Checker) -> Dict[str, Tuple[float, str]]:
    from layers import Tracer, installed

    budget_start = time.perf_counter()
    plain = measure(workload, seed, seconds, checker, False, 1, budget_start, 1)
    tracer = Tracer()
    with installed(tracer):
        traced = measure(workload, seed, seconds, checker, True, 1, budget_start)
    for unit in traced:
        for spans in unit.worker_spans:
            tracer.merge(spans)
    return derive_layers(workload, plain, traced, tracer.snapshot())


def derive_layers(workload, plain: List[Unit], traced: List[Unit], spans) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, each per unit (a simulation, or one sweep)."""
    n = len(traced)

    def span(name: str, column: int = 1) -> int:
        return spans.get(name, [0, 0, 0, 0])[column]

    def secs(name: str) -> float:
        return span(name) / 1e9 / n

    counters: Dict[str, float] = {}
    for unit in traced:
        for __, result in unit.results:
            for key, value in result.extra.items():
                counters[key] = counters.get(key, 0.0) + value

    def count(key: str) -> float:
        return counters.get(key, 0.0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    phase = {p: count(f"perf.time_us.{p}") / 1e6 for p in ("hellos", "view_build", "metadata_phase", "piece_phase")}
    meta_cands = span("core.discovery.candidates", 3) / n
    piece_cands = span("core.download.candidates", 3) / n
    q_hits, q_miss = count("perf.query_cache_hits"), count("perf.query_cache_misses")
    w_hits, w_miss = count("perf.wanted_cache_hits"), count("perf.wanted_cache_misses")
    # The engine's self time is the catch-all for every action no layer
    # wraps, so it is left out: an unwrapped layer lowers the coverage.
    uncovered = ("exec.run_many", "sim.engine.run")
    self_total = sum(entry[2] for name, entry in spans.items() if name not in uncovered) / 1e9
    covered_wall = sum(u.busy if u.busy else u.full_wall for u in traced)
    coverage = ratio(self_total, covered_wall)
    overhead = statistics.median(u.wall for u in traced) / statistics.median(u.wall for u in plain) - 1.0
    is_sweep = isinstance(workload, SweepWorkload)
    sweep_wall = statistics.median(u.wall for u in plain)
    busy = statistics.median(u.busy for u in plain) if is_sweep else 0.0
    if coverage < COVERAGE_FLOOR:
        print(f"# WARNING: trace.coverage {coverage:.3f} is below {COVERAGE_FLOOR}", file=sys.stderr)
    return {
        "traces.build_s": (secs("traces.build"), "s"),
        "traces.contacts": (count("num_contacts"), "count"),
        "sim.runner.init_s": (secs("sim.runner.init"), "s"),
        "sim.engine.events": (count("events"), "count"),
        "sim.engine.self_s": (span("sim.engine.run", 2) / 1e9 / n, "s"),
        "core.mbt.contacts_s": (secs("core.mbt.contacts"), "s"),
        "core.mbt.contacts": (count("contacts_processed"), "count"),
        "core.mbt.contact_batches": (count("contact_batches"), "count"),
        "core.mbt.cliques": (count("cliques_processed"), "count"),
        "core.mbt.us_per_contact": (ratio(secs("core.mbt.contacts") * 1e6, count("contacts_processed")), "us"),
        "core.mbt.hellos_s": (phase["hellos"], "s"),
        "core.mbt.view_build_s": (phase["view_build"], "s"),
        "core.mbt.metadata_phase_s": (phase["metadata_phase"], "s"),
        "core.mbt.piece_phase_s": (phase["piece_phase"], "s"),
        "core.discovery.candidates_s": (secs("core.discovery.candidates"), "s"),
        "core.discovery.candidates": (meta_cands, "count"),
        "core.download.candidates_s": (secs("core.download.candidates"), "s"),
        "core.download.candidates": (piece_cands, "count"),
        "core.mbt.schedule_s": (
            phase["metadata_phase"] + phase["piece_phase"]
            - secs("core.discovery.candidates") - secs("core.download.candidates"),
            "s",
        ),
        "core.mbt.metadata_transmissions": (count("metadata_transmissions"), "count"),
        "core.mbt.piece_transmissions": (count("piece_transmissions"), "count"),
        "core.discovery.sent_per_candidate": (ratio(count("metadata_transmissions"), meta_cands), "ratio"),
        "core.download.sent_per_candidate": (ratio(count("piece_transmissions"), piece_cands), "ratio"),
        "core.node.query_cache_hit_ratio": (ratio(q_hits, q_hits + q_miss), "ratio"),
        "core.node.query_cache_lookups": (q_hits + q_miss, "count"),
        "core.node.wanted_cache_hit_ratio": (ratio(w_hits, w_hits + w_miss), "ratio"),
        "core.node.wanted_cache_lookups": (w_hits + w_miss, "count"),
        "core.credits.calls": (span("core.credits", 0) / n, "count"),
        "core.credits.s": (span("core.credits", 2) / 1e9 / n, "s"),
        "core.mbt.internet_sync_s": (secs("core.mbt.internet_sync"), "s"),
        "core.mbt.internet_syncs": (count("internet_syncs"), "count"),
        "catalog.server.search_s": (secs("catalog.server.search"), "s"),
        "catalog.server.search_calls": (span("catalog.server.search", 0) / n, "count"),
        "catalog.server.top_popular_s": (secs("catalog.server.top_popular"), "s"),
        "catalog.server.top_popular_calls": (span("catalog.server.top_popular", 0) / n, "count"),
        "catalog.generator.generate_day_s": (secs("catalog.generator.generate_day"), "s"),
        "catalog.server.publish_s": (secs("catalog.server.publish"), "s"),
        "core.mbt.expire_all_s": (secs("core.mbt.expire_all"), "s"),
        "sim.metrics.result_s": (secs("sim.metrics.result"), "s"),
        "exec.runs": (statistics.fmean(len(u.results) + u.errors for u in plain) if is_sweep else 0.0, "count"),
        "exec.parallel_efficiency": (ratio(busy, JOBS * sweep_wall) if is_sweep else 0.0, "ratio"),
        "exec.overhead_s": (sweep_wall - busy / JOBS if is_sweep else 0.0, "s"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead": (overhead, "ratio"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    pin_environment()

    workload = WORKLOADS[args.workload]
    checker = Checker()
    collect = per_layer if args.trace else end_to_end
    metrics = collect(workload, args.seed, args.seconds, checker)
    print("# env " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "jobs": JOBS if isinstance(workload, SweepWorkload) else 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
