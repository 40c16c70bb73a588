"""Tests for the experiment harness (sweeps, figures, workloads)."""

from __future__ import annotations

from repro.exec import TraceSpec, run_many
from repro.experiments import FIGURES
from repro.experiments.sweep import SweepPoint, SweepResult, run_sweep, sweep_specs
from repro.experiments.workloads import (
    dieselnet_base_config,
    dieselnet_trace,
    nus_base_config,
    nus_trace,
)
from repro.sim.runner import SimulationConfig
from repro.traces.base import ContactTrace

from conftest import pair_contact
from dataclasses import replace


def micro_trace(seed: int) -> ContactTrace:
    contacts = []
    for day in range(3):
        base = day * 86400.0
        contacts.append(pair_contact(base + 50_000.0, base + 50_060.0, 0, 1))
        contacts.append(pair_contact(base + 60_000.0, base + 60_060.0, 1, 2))
        contacts.append(pair_contact(base + 70_000.0, base + 70_060.0, 2, 3))
    return ContactTrace(contacts, name=f"micro{seed}")


class TestRunSweep:
    def _sweep(self, seeds=(0,)):
        return run_sweep(
            name="micro",
            x_label="access",
            x_values=(0.25, 0.75),
            trace_factory=lambda x, seed: TraceSpec.of(micro_trace, seed),
            config_factory=lambda cfg, x, seed: replace(
                cfg, internet_access_fraction=x, seed=seed
            ),
            base_config=SimulationConfig(files_per_day=5, num_days=3),
            seeds=seeds,
        )

    def test_sweep_structure(self):
        result = self._sweep()
        assert result.x_values == (0.25, 0.75)
        assert result.protocols == ("mbt", "mbt-q", "mbt-qm")
        assert len(result.points) == 2
        for point in result.points:
            for protocol in result.protocols:
                meta, file_ratio = point.ratios[protocol]
                assert 0.0 <= meta <= 1.0
                assert 0.0 <= file_ratio <= 1.0

    def test_series_extraction(self):
        result = self._sweep()
        series = result.series("mbt")
        assert len(series.metadata_ratios) == 2
        assert series.metadata_ratios == result.metadata_series("mbt")
        assert series.file_ratios == result.file_series("mbt")

    def test_format_table_contains_everything(self):
        text = self._sweep().format_table()
        assert "micro" in text
        assert "mbt-qm file" in text
        assert text.count("\n") == 3  # title + header + 2 rows

    def test_format_table_aligns_long_x_label(self):
        label = "trace (0 = random waypoint, 1 = community)"
        result = SweepResult(
            name="long",
            x_label=label,
            x_values=(0.0, 1.0),
            points=(
                SweepPoint(0.0, {"mbt": (0.5, 0.25)}),
                SweepPoint(1.0, {"mbt": (0.75, 0.5)}),
            ),
            protocols=("mbt",),
        )
        header, *rows = result.format_table().splitlines()[1:]
        assert header.startswith(label)
        # Every value column ends where its header does.
        assert {len(line) for line in rows} == {len(header)}
        assert header.index("mbt meta") + len("mbt meta") == rows[0].index("0.500") + 5

    def test_seed_averaging_runs(self):
        result = self._sweep(seeds=(0, 1))
        assert len(result.points) == 2

    def test_series_hooks_and_reading(self):
        """A series mapping names the columns; ``reading`` picks what is averaged."""
        kwargs = dict(
            x_values=(0.25,),
            trace_factory=lambda x, seed: TraceSpec.of(micro_trace, seed),
            config_factory=lambda cfg, x, seed: replace(
                cfg, internet_access_fraction=x, seed=seed
            ),
            base_config=SimulationConfig(files_per_day=5, num_days=3),
            protocols={
                "plain": lambda cfg: cfg,
                "verbose": lambda cfg: replace(cfg, files_per_contact=9),
            },
            seeds=(0, 1),
        )
        specs = sweep_specs(**kwargs)
        assert [s.labels()["protocol"] for s in specs] == ["plain"] * 2 + ["verbose"] * 2
        assert [s.config.files_per_contact for s in specs[2:]] == [9, 9]
        assert specs[0].config == replace(kwargs["base_config"], internet_access_fraction=0.25, seed=0)
        queries = [run.result.queries_generated for run in run_many(specs)]
        result = run_sweep(
            name="hooks",
            x_label="access",
            reading=lambda r: (1.0, float(r.queries_generated)),
            **kwargs,
        )
        assert result.protocols == ("plain", "verbose")
        assert result.points[0].ratios == {
            "plain": (1.0, (queries[0] + queries[1]) / 2),
            "verbose": (1.0, (queries[2] + queries[3]) / 2),
        }


class TestFigureRegistry:
    def test_all_panels_registered(self):
        expected = {
            "fig2a", "fig2b", "fig2c", "fig2d", "fig2e",
            "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
            "figloss", "figrobust",
        }
        assert set(FIGURES) == expected

    def test_panels_are_callable_with_scale_and_seeds(self):
        for function in FIGURES.values():
            assert callable(function)


class TestWorkloads:
    def test_trace_presets_deterministic(self):
        a = dieselnet_trace("fast", seed=1)
        b = dieselnet_trace("fast", seed=1)
        assert len(a) == len(b)

    def test_scales_differ(self):
        fast = dieselnet_trace("fast", seed=0)
        paper = dieselnet_trace("paper", seed=0)
        assert paper.num_nodes > fast.num_nodes

    def test_nus_attendance_knob(self):
        low = nus_trace("fast", seed=0, attendance_rate=0.3)
        high = nus_trace("fast", seed=0, attendance_rate=1.0)
        assert sum(c.size for c in high) > sum(c.size for c in low)

    def test_base_configs_follow_paper(self):
        diesel = dieselnet_base_config()
        nus = nus_base_config()
        assert diesel.frequent_contact_max_gap_days == 3.0  # §VI-A
        assert nus.frequent_contact_max_gap_days == 1.0  # §VI-A
        assert diesel.files_per_day == nus.files_per_day
