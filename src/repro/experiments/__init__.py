"""Experiment harness: regenerates every figure of the paper's §VI.

Each ``fig*`` function runs the corresponding parameter sweep over the
three protocols (MBT, MBT-Q, MBT-QM) and returns a
:class:`~repro.experiments.sweep.SweepResult` whose ``format_table()``
prints the same series the paper plots. ``scale="fast"`` (the default
used by the benchmark suite) runs a reduced trace; ``scale="paper"``
approximates the paper's full scale.
"""

from repro.experiments.figures import (
    FIGURES,
    fig2a,
    fig2b,
    fig2c,
    fig2d,
    fig2e,
    fig3a,
    fig3b,
    fig3c,
    fig3d,
    fig3e,
    fig3f,
)
from repro.experiments.sweep import ProtocolSeries, SweepPoint, SweepResult, run_sweep
from repro.experiments.workloads import Scale, dieselnet_trace, nus_trace

__all__ = [
    "FIGURES",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig2e",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig3e",
    "fig3f",
    "ProtocolSeries",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "Scale",
    "dieselnet_trace",
    "nus_trace",
]
