"""Extension panels: the ablation and validation runs behind the claims table.

Each function runs one fixed setup beyond the paper's Fig. 2/3 sweeps
and returns a :class:`~repro.experiments.sweep.SweepResult`: an x axis
plus named series such as ``coordinator``/``cyclic-coop``/
``cyclic-rider``, ``broadcast``/``pairwise`` or ``simulator``/
``runtime``. The rows of :data:`repro.experiments.validation.CLAIMS`
that read a panel state its claim; the panel only measures.

Every panel runs on the ``fast`` traces with trace seed 0 (pollution
also draws plan seeds 0–4); ``scale`` and ``seeds`` apply only to the
figure panels. ``jobs`` fans the plain simulation cells out through the
execution kernel (:func:`~repro.exec.run_many`) with results identical
to serial; cells that read a :class:`~repro.sim.runner.Simulation`'s
internals, or run the podcast baseline or the wire runtime, run
in-process.

This module is imported by :mod:`repro.experiments.validation` only,
so importing the figure panels (as ``perfbench`` does) does not load
the runtime, the podcast baseline or the mobility generators.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import fmean, mean
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.mbt import ProtocolVariant, SchedulingMode
from repro.core.node import EVICTION_POLICIES
from repro.core.podcast import PodcastConfig, PodcastSimulation
from repro.core.strategies import AdversaryPlan
from repro.exec import RunSpec, TraceSpec, build_trace, run_many
from repro.experiments.sweep import SweepPoint, SweepResult
from repro.experiments.workloads import (
    dieselnet_base_config,
    dieselnet_trace,
    nus_base_config,
    nus_trace,
)
from repro.sim.metrics import SimulationResult
from repro.sim.runner import Simulation, SimulationConfig
from repro.sim.spacetime import oracle_file_delivery_bound
from repro.traces.mobility import (
    CommunityConfig,
    RandomWaypointConfig,
    generate_community_trace,
    generate_random_waypoint_trace,
)
from repro.types import DAY, noon_of_day

#: (metadata ratio, file ratio) of one series at one x value.
Ratios = Tuple[float, float]
#: Not measured: a group with no queries, or a bound on files only.
MISSING: Ratios = (float("nan"), float("nan"))

FREE_RIDER_FRACTIONS = (0.0, 0.2, 0.4, 0.6)
FAKES_PER_DAY = (0, 5, 15, 30)
PLAN_SEEDS = (0, 1, 2, 3, 4)
PIECES_PER_FILE = (1, 2, 4)
STORE_CAPACITIES = (5, 15, 40)
ATTENDANCE_RATES = (0.5, 0.8, 1.0)
WHOLE_FILE_BUDGETS = (1, 3, 6)
#: x of the unbounded store in the storage panel.
UNBOUNDED = float("inf")

_DIESELNET = TraceSpec.of(dieselnet_trace, "fast", 0)
_NUS = TraceSpec.of(nus_trace, "fast", 0)


def _ratios(result: SimulationResult) -> Ratios:
    return (result.metadata_delivery_ratio, result.file_delivery_ratio)


def _panel(
    name: str, x_label: str, cells: Mapping[float, Mapping[str, Ratios]]
) -> SweepResult:
    """Assemble a panel from ``{x: {series: ratios}}``; series keep first-row order."""
    series = tuple(next(iter(cells.values())))
    return SweepResult(
        name=name,
        x_label=x_label,
        x_values=tuple(float(x) for x in cells),
        points=tuple(SweepPoint(float(x), dict(row)) for x, row in cells.items()),
        protocols=series,
    )


def _simulate(
    runs: Sequence[Tuple[TraceSpec, SimulationConfig]], jobs: int
) -> List[SimulationResult]:
    """Results of plain simulation runs, in order, through the kernel."""
    specs = [RunSpec(trace=trace, config=config) for trace, config in runs]
    return [run.result for run in run_many(specs, jobs=jobs)]  # type: ignore[union-attr]


#: One arm of a panel: x -> the (trace, config) to run there.
Arm = Callable[[Any], Tuple[TraceSpec, SimulationConfig]]


def _grid(xs: Sequence[Any], arms: Mapping[str, Arm], jobs: int) -> Dict[float, Dict[str, Ratios]]:
    """Run every (x, arm) cell through the kernel: ``{x: {arm: ratios}}``."""
    results = iter(_simulate([arm(x) for x in xs for arm in arms.values()], jobs))
    return {x: {name: _ratios(next(results)) for name in arms} for x in xs}


def group_ratios(sim: Simulation) -> Tuple[Ratios, Ratios]:
    """(cooperators, free-riders) delivery of a finished run.

    Both groups leave out Internet-access nodes, so a free-rider's
    share is compared with that of the cooperators it depends on. A
    group with no queries reads :data:`MISSING`.
    """
    groups = []
    for adversarial in (False, True):
        nodes = frozenset(
            n for n in sim.states
            if (n in sim.adversary_nodes) == adversarial and n not in sim.access_nodes
        )
        meta, file_ratio, count = sim.metrics.ratios_for(nodes)
        groups.append((meta, file_ratio) if count else MISSING)
    return groups[0], groups[1]


def incentives(jobs: int = 1) -> SweepResult:
    """§IV-B credits and choking: what cooperators get against free-riders.

    DieselNet with 2 metadata and 2 files per contact and a growing
    fraction of free-riders. Three arms: the §V-A ``coordinator``, §V-B
    ``cyclic`` credit-ranked turns, and cyclic turns with encrypted
    choking (``choked``). Totals are over all non-access nodes; the
    ``-coop`` and ``-rider`` series split them by group.
    """
    trace = build_trace(_DIESELNET)
    base = replace(dieselnet_base_config(seed=0), metadata_per_contact=2, files_per_contact=2)
    cells: Dict[float, Dict[str, Ratios]] = {}
    for fraction in FREE_RIDER_FRACTIONS:
        riders = replace(
            base, adversaries=AdversaryPlan(fraction=fraction, mix=(("free_rider", 1.0),))
        )
        cyclic = replace(riders, scheduling=SchedulingMode.CYCLIC)
        row: Dict[str, Ratios] = {
            "coordinator": _ratios(Simulation(trace, riders).run())
        }
        for arm, config in (
            ("cyclic", cyclic),
            ("choked", replace(cyclic, encrypted_choking=True)),
        ):
            sim = Simulation(trace, config)
            result = sim.run()
            if arm == "cyclic":
                row["cyclic"] = _ratios(result)
            row[f"{arm}-coop"], row[f"{arm}-rider"] = group_ratios(sim)
        cells[fraction] = row
    return _panel("Incentives DieselNet — free-rider fraction", "free-rider fraction", cells)


def pollution(jobs: int = 1) -> SweepResult:
    """§III-B fake publishers against signature authentication.

    15% pirate nodes mirror fresh files with fakes; x is their fakes per
    day. Arms: ``defended`` (signatures verified), ``undefended`` and
    ``careful`` (unverified stores, but a user who picks one record per
    query, §III-B manual selection). Each cell is the mean over the
    pirate sets of :data:`PLAN_SEEDS`.
    """
    base = dieselnet_base_config(seed=0)
    arms = {
        "defended": {},
        "undefended": {"verify_signatures": False},
        "careful": {"verify_signatures": False, "selection_policy": "best"},
    }
    runs = [
        (
            _DIESELNET,
            replace(
                base,
                adversaries=AdversaryPlan(
                    fraction=0.15,
                    mix=(("polluter", 1.0),),
                    polluter_fakes_per_day=fakes,
                    seed=plan_seed,
                ),
                **overrides,
            ),
        )
        for fakes in FAKES_PER_DAY
        for overrides in arms.values()
        for plan_seed in PLAN_SEEDS
    ]
    results = iter(_simulate(runs, jobs))
    cells: Dict[float, Dict[str, Ratios]] = {}
    for fakes in FAKES_PER_DAY:
        row: Dict[str, Ratios] = {}
        for arm in arms:
            draws = [next(results) for __ in PLAN_SEEDS]
            row[arm] = (
                fmean(r.metadata_delivery_ratio for r in draws),
                fmean(r.file_delivery_ratio for r in draws),
            )
        cells[fakes] = row
    return _panel(
        "Pollution DieselNet — fakes per day (mean over plan seeds 0-4)", "fakes/day", cells
    )


def piece_size(jobs: int = 1) -> SweepResult:
    """§III-B piece size: pieces per file at a fixed budget of 4 pieces per contact."""
    base = replace(dieselnet_base_config(seed=0), files_per_contact=4)
    cells = _grid(
        PIECES_PER_FILE, {"mbt": lambda p: (_DIESELNET, replace(base, pieces_per_file=p))}, jobs
    )
    return _panel("Piece size DieselNet — pieces per file", "pieces/file", cells)


def budgets(jobs: int = 1) -> SweepResult:
    """§V budgets: the paper's fixed per-contact counts against duration-derived ones (100 kB/s)."""
    cases = ((_DIESELNET, dieselnet_base_config(0)), (_NUS, nus_base_config(0)))
    cells = _grid(
        range(len(cases)),
        {
            "fixed": lambda x: cases[x],
            "duration": lambda x: (
                cases[x][0],
                replace(cases[x][1], use_duration_budgets=True, bandwidth_bytes_per_s=100_000.0),
            ),
        },
        jobs,
    )
    return _panel("Budget model — fixed vs duration-derived", "trace (0 = DieselNet, 1 = NUS)", cells)


def storage(jobs: int = 1) -> SweepResult:
    """Bounded metadata stores: capacity × eviction policy on DieselNet.

    The last x is the unbounded store, where the policy does nothing: one
    run fills that cell of every series.
    """
    base = dieselnet_base_config(seed=0)
    cells = _grid(
        STORE_CAPACITIES,
        {
            policy: lambda c, policy=policy: (
                _DIESELNET, replace(base, metadata_capacity=c, metadata_policy=policy)
            )
            for policy in EVICTION_POLICIES
        },
        jobs,
    )
    (unbounded,) = _simulate([(_DIESELNET, replace(base, metadata_capacity=None))], jobs)
    cells[UNBOUNDED] = {policy: _ratios(unbounded) for policy in EVICTION_POLICIES}
    return _panel(
        "Storage DieselNet — metadata store capacity", "capacity (inf = unbounded)", cells
    )


def broadcast(jobs: int = 1) -> SweepResult:
    """§V end to end: broadcast against pair-wise download on NUS classes (2/2 per contact)."""
    base = replace(nus_base_config(seed=0), files_per_contact=2, metadata_per_contact=2)
    cells = _grid(
        ATTENDANCE_RATES,
        {
            name: lambda rate, b=b: (
                TraceSpec.of(nus_trace, "fast", 0, attendance_rate=rate),
                replace(base, broadcast=b),
            )
            for name, b in (("broadcast", True), ("pairwise", False))
        },
        jobs,
    )
    return _panel("Broadcast vs pair-wise NUS — attendance rate", "attendance rate", cells)


def podcast(jobs: int = 1) -> SweepResult:
    """§II-C: MBT against channel podcasting at equal whole-file budgets per contact."""
    base = dieselnet_base_config(seed=0)
    cells = _grid(
        WHOLE_FILE_BUDGETS,
        {
            "mbt": lambda b: (
                _DIESELNET, replace(base, files_per_contact=b, metadata_per_contact=b)
            )
        },
        jobs,
    )
    trace = build_trace(_DIESELNET)
    for b, row in cells.items():
        podcast = PodcastSimulation(trace, PodcastConfig(seed=0, entries_per_contact=b))
        row["podcast"] = _ratios(podcast.run())
    return _panel(
        "MBT vs podcasting DieselNet — whole-file budget per contact", "files/contact", cells
    )


def runtime(jobs: int = 1) -> SweepResult:
    """The wire-level runtime against the simulator, every variant on both traces."""
    from repro.runtime import RuntimeHarness

    cases = [
        (name, trace, replace(base, variant=variant))
        for name, trace, base in (
            ("DieselNet", _DIESELNET, dieselnet_base_config(0)),
            ("NUS", _NUS, nus_base_config(0)),
        )
        for variant in ProtocolVariant
    ]
    simulated = _simulate([(trace, config) for __, trace, config in cases], jobs)
    legend = ", ".join(
        f"{x} = {name} {config.variant.value}" for x, (name, __, config) in enumerate(cases)
    )
    return _panel(
        f"Wire runtime vs simulator ({legend})",
        "case",
        {
            x: {
                "simulator": _ratios(sim),
                "runtime": _ratios(RuntimeHarness(build_trace(trace), config).run()),
            }
            for x, ((__, trace, config), sim) in enumerate(zip(cases, simulated))
        },
    )


def mobility(jobs: int = 1) -> SweepResult:
    """The protocol ordering on two mobility models, beyond the paper's traces.

    Sparse 20-node, 3-day parameterizations (40 m radios in a 6 km
    square) keep contacts intermittent, so the mobility structure shows.
    """
    traces = (
        TraceSpec.of(
            generate_random_waypoint_trace,
            RandomWaypointConfig(
                num_nodes=20, area_size=6000.0, radio_range=40.0,
                max_speed=10.0, tick=60.0, duration=3 * DAY,
            ),
            0,
        ),
        TraceSpec.of(
            generate_community_trace,
            CommunityConfig(
                num_nodes=20, num_communities=4, area_size=6000.0,
                community_radius=250.0, radio_range=40.0,
                roaming_probability=0.1, tick=60.0, duration=3 * DAY,
            ),
            0,
        ),
    )
    config = SimulationConfig(
        internet_access_fraction=0.3,
        files_per_day=30,
        ttl_days=2.0,
        metadata_per_contact=3,
        files_per_contact=3,
        frequent_contact_max_gap_days=1.0,
        seed=0,
    )
    cells = _grid(
        range(len(traces)),
        {v.value: lambda x, v=v: (traces[x], config.with_variant(v)) for v in ProtocolVariant},
        jobs,
    )
    return _panel(
        "Mobility models — protocol ordering", "trace (0 = random waypoint, 1 = community)", cells
    )


def oracle(jobs: int = 1) -> SweepResult:
    """§II-A: MBT file delivery against the space-time reachability bound.

    The bound is the mean over generation days whose TTL window lies
    inside the trace of the share of non-access nodes the contacts can
    reach before expiry. It bounds files only, so ``oracle`` has no
    metadata value.
    """
    trace = build_trace(_DIESELNET)
    config = dieselnet_base_config(seed=0)
    simulation = Simulation(trace, config)
    result = simulation.run()
    ttl = config.ttl_days * DAY
    bound = mean(
        oracle_file_delivery_bound(trace, simulation.access_nodes, noon_of_day(day), ttl)
        for day in range(simulation.num_days())
        if noon_of_day(day) + ttl <= trace.duration
    )
    return _panel(
        "Oracle bound DieselNet — space-time reachability",
        "access fraction",
        {
            config.internet_access_fraction: {
                "oracle": (MISSING[0], bound),
                "mbt": _ratios(result),
            }
        },
    )


#: Extension panels by key; each takes only ``jobs``.
ABLATIONS: Dict[str, Callable[..., SweepResult]] = {
    "incentives": incentives,
    "pollution": pollution,
    "piece-size": piece_size,
    "budgets": budgets,
    "storage": storage,
    "broadcast": broadcast,
    "podcast": podcast,
    "runtime": runtime,
    "mobility": mobility,
    "oracle": oracle,
}
