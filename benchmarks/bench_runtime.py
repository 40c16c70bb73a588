"""Validation — wire-level runtime vs omniscient simulator.

The deployment-shaped runtime (serialized frames over an emulated
radio, per-node-local knowledge only) must reproduce the simulator's
results on identical workloads: same traces, catalogs, budgets and
seeds. This bench runs both implementations on both traces under every
protocol variant and checks they agree within a small tolerance — the
strongest internal consistency check the reproduction has.
"""

from dataclasses import replace

from repro.core.mbt import ProtocolVariant
from repro.experiments.workloads import (
    dieselnet_base_config,
    dieselnet_trace,
    nus_base_config,
    nus_trace,
)
from repro.runtime import RuntimeHarness
from repro.sim.runner import Simulation

TOLERANCE = 0.06


def run_both():
    cases = {
        "dieselnet": (dieselnet_trace("fast", 0), dieselnet_base_config(0)),
        "nus": (nus_trace("fast", 0), nus_base_config(0)),
    }
    rows = []
    for name, (trace, base) in cases.items():
        for variant in ProtocolVariant:
            config = replace(base, variant=variant)
            sim = Simulation(trace, config).run()
            runtime = RuntimeHarness(trace, config).run()
            rows.append((f"{name} {variant.value}", sim, runtime))
    return rows


def test_runtime_matches_simulator(benchmark):
    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print()
    print(f"{'case':>16}{'impl':>11}{'meta':>8}{'file':>8}{'frames':>9}{'MB':>8}")
    for name, sim, runtime in rows:
        print(
            f"{name:>16}{'simulator':>11}{sim.metadata_delivery_ratio:>8.3f}"
            f"{sim.file_delivery_ratio:>8.3f}{'-':>9}{'-':>8}"
        )
        print(
            f"{name:>16}{'runtime':>11}{runtime.metadata_delivery_ratio:>8.3f}"
            f"{runtime.file_delivery_ratio:>8.3f}"
            f"{runtime.extra['radio_frames']:>9.0f}"
            f"{runtime.extra['radio_bytes'] / 1e6:>8.2f}"
        )

    for name, sim, runtime in rows:
        assert abs(
            runtime.metadata_delivery_ratio - sim.metadata_delivery_ratio
        ) < TOLERANCE, name
        assert abs(
            runtime.file_delivery_ratio - sim.file_delivery_ratio
        ) < TOLERANCE, name
        assert runtime.extra["radio_frames"] > 0
