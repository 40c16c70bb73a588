"""The one grid runner behind every figure and extension panel.

A sweep varies one x-axis parameter, runs every series (by default the
three protocol variants) at each point, averaging over seeds, and
collects both delivery ratios. The result renders as an aligned text
table — the textual equivalent of one figure panel from the paper.

Execution goes through the shared kernel (:mod:`repro.exec`): the
x × series × seed grid is flattened into one list of picklable
:class:`~repro.exec.RunSpec` values and handed to
:func:`~repro.exec.run_many`, so ``jobs=N`` fans the whole panel out
over N worker processes with results identical to serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.mbt import ProtocolVariant
from repro.exec import RunSpec, TraceSpec, run_many
from repro.sim.metrics import SimulationResult
from repro.sim.runner import SimulationConfig

#: A sweep hook: (base config, x value, seed) -> concrete config.
ConfigFactory = Callable[[SimulationConfig, float, int], SimulationConfig]
#: A sweep hook: (x value, seed) -> the trace to run at that point (lets
#: sweeps regenerate the trace per point, e.g. the attendance-rate
#: sweep of Fig. 3(f)). Each worker builds and caches it locally.
TraceFactory = Callable[[float, int], TraceSpec]
#: One series of a sweep: the config at (x, seed) -> the series' config.
SeriesHook = Callable[[SimulationConfig], SimulationConfig]
#: What a cell averages: one run's (metadata ratio, file ratio).
Reading = Callable[[SimulationResult], Tuple[float, float]]

#: The paper's three protocol variants, each series named after its variant.
DEFAULT_PROTOCOLS: Mapping[str, SeriesHook] = {
    variant.value: lambda config, variant=variant: config.with_variant(variant)
    for variant in (ProtocolVariant.MBT, ProtocolVariant.MBT_Q, ProtocolVariant.MBT_QM)
}


def delivery(result: SimulationResult) -> Tuple[float, float]:
    """The default reading: a run's global (metadata, file) delivery ratios."""
    return (result.metadata_delivery_ratio, result.file_delivery_ratio)


@dataclass(frozen=True)
class ProtocolSeries:
    """Per-protocol y-series of one sweep."""

    protocol: str
    metadata_ratios: Tuple[float, ...]
    file_ratios: Tuple[float, ...]


@dataclass(frozen=True)
class SweepPoint:
    """All measurements at one x value."""

    x: float
    #: protocol name -> (metadata ratio, file ratio), seed-averaged.
    ratios: Dict[str, Tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    """One reproduced figure panel."""

    name: str
    x_label: str
    x_values: Tuple[float, ...]
    points: Tuple[SweepPoint, ...]
    protocols: Tuple[str, ...]

    def series(self, protocol: str) -> ProtocolSeries:
        """Extract the y-series of one protocol."""
        return ProtocolSeries(
            protocol=protocol,
            metadata_ratios=tuple(p.ratios[protocol][0] for p in self.points),
            file_ratios=tuple(p.ratios[protocol][1] for p in self.points),
        )

    def metadata_series(self, protocol: str) -> Tuple[float, ...]:
        return self.series(protocol).metadata_ratios

    def file_series(self, protocol: str) -> Tuple[float, ...]:
        return self.series(protocol).file_ratios

    def format_table(self) -> str:
        """Render the panel as an aligned text table.

        Column width grows with the longest series label (the paper's
        three protocol names fit the historic 12, so their panels render
        byte-identically; robustness panels label series
        ``variant+credit-policy`` and need more room). The x column
        likewise grows past 24 characters for a longer x label.
        """
        width = max(12, *(len(p) + 6 for p in self.protocols))
        x_width = max(24, len(self.x_label))
        header = [f"{self.x_label:>{x_width}}"]
        for protocol in self.protocols:
            header.append(f"{protocol + ' meta':>{width}}")
            header.append(f"{protocol + ' file':>{width}}")
        lines = [f"== {self.name} ==", "".join(header)]
        for point in self.points:
            row = [f"{point.x:>{x_width}.3g}"]
            for protocol in self.protocols:
                meta, file_ratio = point.ratios[protocol]
                row.append(f"{meta:>{width}.3f}")
                row.append(f"{file_ratio:>{width}.3f}")
            lines.append("".join(row))
        return "\n".join(lines)


def sweep_specs(
    x_values: Sequence[float],
    trace_factory: TraceFactory,
    config_factory: ConfigFactory,
    base_config: SimulationConfig,
    protocols: Mapping[str, SeriesHook] = DEFAULT_PROTOCOLS,
    seeds: Sequence[int] = (0,),
) -> List[RunSpec]:
    """Flatten the x × series × seed grid into kernel run specs.

    ``protocols`` maps each series name to its config hook. Spec order is
    the grid in row-major order (x outermost, seed innermost) —
    :func:`run_sweep` relies on it when regrouping. Each spec is tagged
    with its ``x``, series name (``protocol``) and ``seed``.
    """
    return [
        RunSpec(
            trace=trace_factory(x, seed),
            config=hook(config_factory(base_config, x, seed)),
            tag=RunSpec.make_tag(x=float(x), protocol=name, seed=int(seed)),
        )
        for x in x_values
        for name, hook in protocols.items()
        for seed in seeds
    ]


def run_sweep(
    name: str,
    x_label: str,
    x_values: Sequence[float],
    trace_factory: TraceFactory,
    config_factory: ConfigFactory,
    base_config: SimulationConfig,
    protocols: Mapping[str, SeriesHook] = DEFAULT_PROTOCOLS,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    reading: Reading = delivery,
) -> SweepResult:
    """Run the grid of :func:`sweep_specs` and assemble the panel.

    For every (x, series) cell, ``reading`` is averaged over ``seeds``;
    the trace is regenerated per (x, seed) so that sweeps over trace
    parameters and sweeps over protocol parameters share one code path
    (the kernel's spec-keyed cache makes the regeneration free when the
    trace does not actually depend on x). ``jobs`` fans the grid out
    over worker processes; results are identical for any job count.
    """
    series = tuple(protocols)
    specs = sweep_specs(
        x_values, trace_factory, config_factory, base_config, protocols, seeds
    )
    runs = iter(run_many(specs, jobs=jobs))
    points: List[SweepPoint] = []
    for x in x_values:
        cell: Dict[str, Tuple[float, float]] = {}
        for label in series:
            readings = [reading(next(runs).result) for __ in seeds]
            cell[label] = (
                mean(meta for meta, __ in readings),
                mean(file_ratio for __, file_ratio in readings),
            )
        points.append(SweepPoint(x=float(x), ratios=cell))
    return SweepResult(
        name=name,
        x_label=x_label,
        x_values=tuple(float(x) for x in x_values),
        points=tuple(points),
        protocols=series,
    )
