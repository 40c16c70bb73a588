"""Extension panels: the ablation and validation runs behind the claims table.

Each function runs one fixed setup beyond the paper's Fig. 2/3 sweeps
and returns a :class:`~repro.experiments.sweep.SweepResult`: an x axis
plus named series such as ``coordinator``/``cyclic-coop``/
``cyclic-rider``, ``broadcast``/``pairwise`` or ``simulator``/
``runtime``. The rows of :data:`repro.experiments.validation.CLAIMS`
that read a panel state its claim; the panel only measures.

Every panel runs on the ``fast`` traces with trace seed 0 (pollution
also draws plan seeds 0–4); ``scale`` and ``seeds`` apply only to the
figure panels. The plain simulation cells run as one grid through
:func:`~repro.experiments.sweep.run_sweep`, so ``jobs`` fans them out
with results identical to serial; cells that read a
:class:`~repro.sim.runner.Simulation`'s internals, or run the podcast
baseline or the wire runtime, run in-process.

This module is imported by :mod:`repro.experiments.validation` only,
so importing the figure panels (as ``perfbench`` does) does not load
the runtime, the podcast baseline or the mobility generators.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import mean
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.core.mbt import ProtocolVariant, SchedulingMode
from repro.core.node import EVICTION_POLICIES
from repro.core.podcast import PodcastConfig, PodcastSimulation
from repro.core.strategies import AdversaryPlan
from repro.exec import RunSpec, TraceSpec, build_trace, run_many
from repro.experiments.sweep import SeriesHook, SweepPoint, SweepResult, delivery, run_sweep
from repro.experiments.workloads import (
    dieselnet_base_config,
    dieselnet_trace,
    nus_base_config,
    nus_trace,
)
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


def _panel(
    name: str, x_label: str, cells: Mapping[float, Mapping[str, Ratios]]
) -> SweepResult:
    """Assemble an in-process panel from ``{x: {series: ratios}}``; series keep first-row order."""
    series = tuple(next(iter(cells.values())))
    return SweepResult(
        name=name,
        x_label=x_label,
        x_values=tuple(float(x) for x in cells),
        points=tuple(SweepPoint(float(x), dict(row)) for x, row in cells.items()),
        protocols=series,
    )


def _add_series(
    panel: SweepResult, name: str, measure: Callable[[float], Ratios]
) -> SweepResult:
    """``panel`` with one more series, measured in-process at each x."""
    return replace(
        panel,
        points=tuple(
            SweepPoint(point.x, {**point.ratios, name: measure(point.x)})
            for point in panel.points
        ),
        protocols=panel.protocols + (name,),
    )


def _with(**changes: Any) -> SeriesHook:
    """A series that sets ``changes`` on the config of each cell."""
    return lambda config: replace(config, **changes)


def _unchanged(config: SimulationConfig, x: Any, seed: int) -> SimulationConfig:
    """Config factory of a panel whose x varies only the trace or the series."""
    return config


def _trace(spec: TraceSpec) -> Callable[[Any, int], TraceSpec]:
    """Trace factory running ``spec`` at every x."""
    return lambda x, seed: spec


def _case_sweep(
    name: str,
    x_label: str,
    cases: Sequence[Tuple[TraceSpec, SimulationConfig]],
    series: Mapping[str, SeriesHook],
    jobs: int,
) -> SweepResult:
    """A panel whose x is the index of one (trace, config) case."""
    return run_sweep(
        name,
        x_label,
        range(len(cases)),
        lambda x, seed: cases[x][0],
        lambda base, x, seed: cases[x][1],
        SimulationConfig(),  # each case's config replaces the base
        series,
        jobs=jobs,
    )


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
            "coordinator": delivery(Simulation(trace, riders).run())
        }
        for arm, config in (
            ("cyclic", cyclic),
            ("choked", replace(cyclic, encrypted_choking=True)),
        ):
            sim = Simulation(trace, config)
            result = sim.run()
            if arm == "cyclic":
                row["cyclic"] = delivery(result)
            row[f"{arm}-coop"], row[f"{arm}-rider"] = group_ratios(sim)
        cells[fraction] = row
    return _panel("Incentives DieselNet — free-rider fraction", "free-rider fraction", cells)


def pollution(jobs: int = 1) -> SweepResult:
    """§III-B fake publishers against signature authentication.

    15% pirate nodes mirror fresh files with fakes; x is their fakes per
    day. Arms: ``defended`` (signatures verified), ``undefended`` and
    ``careful`` (unverified stores, but a user who picks one record per
    query, §III-B manual selection). Each cell is the mean over the
    pirate sets of :data:`PLAN_SEEDS`, which the sweep's seeds draw.
    """
    return run_sweep(
        "Pollution DieselNet — fakes per day (mean over plan seeds 0-4)",
        "fakes/day",
        FAKES_PER_DAY,
        _trace(_DIESELNET),
        lambda config, fakes, plan_seed: replace(
            config,
            adversaries=AdversaryPlan(
                fraction=0.15,
                mix=(("polluter", 1.0),),
                polluter_fakes_per_day=fakes,
                seed=plan_seed,
            ),
        ),
        dieselnet_base_config(seed=0),
        {
            "defended": _with(),
            "undefended": _with(verify_signatures=False),
            "careful": _with(verify_signatures=False, selection_policy="best"),
        },
        seeds=PLAN_SEEDS,
        jobs=jobs,
    )


def piece_size(jobs: int = 1) -> SweepResult:
    """§III-B piece size: pieces per file at a fixed budget of 4 pieces per contact."""
    return run_sweep(
        "Piece size DieselNet — pieces per file",
        "pieces/file",
        PIECES_PER_FILE,
        _trace(_DIESELNET),
        lambda config, pieces, seed: replace(config, pieces_per_file=pieces),
        replace(dieselnet_base_config(seed=0), files_per_contact=4),
        {"mbt": _with()},
        jobs=jobs,
    )


def budgets(jobs: int = 1) -> SweepResult:
    """§V budgets: the paper's fixed per-contact counts against duration-derived ones (100 kB/s)."""
    return _case_sweep(
        "Budget model — fixed vs duration-derived",
        "trace (0 = DieselNet, 1 = NUS)",
        ((_DIESELNET, dieselnet_base_config(0)), (_NUS, nus_base_config(0))),
        {
            "fixed": _with(),
            "duration": _with(use_duration_budgets=True),
        },
        jobs,
    )


def storage(jobs: int = 1) -> SweepResult:
    """Bounded metadata stores: capacity × eviction policy on DieselNet.

    The last x is the unbounded store, where the policy does nothing: one
    run fills that cell of every series.
    """
    base = dieselnet_base_config(seed=0)
    panel = run_sweep(
        "Storage DieselNet — metadata store capacity",
        "capacity (inf = unbounded)",
        STORE_CAPACITIES,
        _trace(_DIESELNET),
        lambda config, capacity, seed: replace(config, metadata_capacity=capacity),
        base,
        {policy: _with(metadata_policy=policy) for policy in EVICTION_POLICIES},
        jobs=jobs,
    )
    (unbounded,) = run_many([RunSpec(trace=_DIESELNET, config=base)])
    cell = delivery(unbounded.result)
    return replace(
        panel,
        x_values=panel.x_values + (UNBOUNDED,),
        points=panel.points + (SweepPoint(UNBOUNDED, dict.fromkeys(panel.protocols, cell)),),
    )


def broadcast(jobs: int = 1) -> SweepResult:
    """§V end to end: broadcast against pair-wise download on NUS classes (2/2 per contact)."""
    return run_sweep(
        "Broadcast vs pair-wise NUS — attendance rate",
        "attendance rate",
        ATTENDANCE_RATES,
        lambda rate, seed: TraceSpec.of(nus_trace, "fast", 0, attendance_rate=rate),
        _unchanged,
        replace(nus_base_config(seed=0), files_per_contact=2, metadata_per_contact=2),
        {"broadcast": _with(broadcast=True), "pairwise": _with(broadcast=False)},
        jobs=jobs,
    )


def podcast(jobs: int = 1) -> SweepResult:
    """§II-C: MBT against channel podcasting at equal whole-file budgets per contact."""
    panel = run_sweep(
        "MBT vs podcasting DieselNet — whole-file budget per contact",
        "files/contact",
        WHOLE_FILE_BUDGETS,
        _trace(_DIESELNET),
        lambda config, b, seed: replace(config, files_per_contact=b, metadata_per_contact=b),
        dieselnet_base_config(seed=0),
        {"mbt": _with()},
        jobs=jobs,
    )
    trace = build_trace(_DIESELNET)
    return _add_series(
        panel,
        "podcast",
        lambda b: delivery(
            PodcastSimulation(trace, PodcastConfig(seed=0, entries_per_contact=int(b))).run()
        ),
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
    legend = ", ".join(
        f"{x} = {name} {config.variant.value}" for x, (name, __, config) in enumerate(cases)
    )
    panel = _case_sweep(
        f"Wire runtime vs simulator ({legend})",
        "case",
        [(trace, config) for __, trace, config in cases],
        {"simulator": _with()},
        jobs,
    )
    return _add_series(
        panel,
        "runtime",
        lambda x: delivery(
            RuntimeHarness(build_trace(cases[int(x)][1]), cases[int(x)][2]).run()
        ),
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
    return run_sweep(
        "Mobility models — protocol ordering",
        "trace (0 = random waypoint, 1 = community)",
        range(len(traces)),
        lambda x, seed: traces[x],
        _unchanged,
        config,
        jobs=jobs,
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
                "mbt": delivery(result),
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
