"""Extended runner coverage: reports, sync cadence, popularity tracking,
multi-piece MBT-QM, and capacity-bounded full simulations."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.mbt import ProtocolVariant
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.nus import NUSConfig, generate_nus_trace


@pytest.fixture(scope="module")
def trace():
    return generate_dieselnet_trace(DieselNetConfig(num_buses=12, num_days=4), seed=5)


class TestNodeReport:
    def test_one_row_per_node(self, trace):
        sim = Simulation(trace, SimulationConfig(seed=5, files_per_day=10))
        sim.run()
        report = sim.node_report()
        assert len(report) == trace.num_nodes
        assert [row["node"] for row in report] == sorted(
            int(n) for n in trace.nodes
        )

    def test_report_fields(self, trace):
        sim = Simulation(trace, SimulationConfig(seed=5, files_per_day=10))
        sim.run()
        row = sim.node_report()[0]
        for key in (
            "internet_access", "strategy", "metadata_stored",
            "pieces_stored", "credit_granted", "metadata_received",
            "pieces_sent", "internet_syncs",
        ):
            assert key in row

    def test_access_flags_match_roles(self, trace):
        sim = Simulation(
            trace, SimulationConfig(seed=5, files_per_day=10,
                                    internet_access_fraction=0.5)
        )
        sim.run()
        flagged = {row["node"] for row in sim.node_report() if row["internet_access"]}
        assert flagged == {int(n) for n in sim.access_nodes}

    def test_activity_recorded(self, trace):
        sim = Simulation(trace, SimulationConfig(seed=5, files_per_day=10))
        sim.run()
        report = sim.node_report()
        assert sum(row["metadata_stored"] for row in report) > 0
        assert sum(row["pieces_sent"] for row in report) > 0


class TestPopularityTracking:
    def test_tracked_popularity_runs_and_differs(self, trace):
        base = SimulationConfig(seed=5, files_per_day=20)
        ground_truth = Simulation(trace, base).run()
        tracked = Simulation(trace, replace(base, track_popularity=True)).run()
        assert 0.0 <= tracked.file_delivery_ratio <= 1.0
        # Server-estimated popularities reorder pushes; outcomes differ.
        assert (
            tracked.extra["piece_transmissions"]
            != ground_truth.extra["piece_transmissions"]
            or tracked.file_delivery_ratio != ground_truth.file_delivery_ratio
            or tracked.metadata_delivery_ratio
            != ground_truth.metadata_delivery_ratio
        )


class TestMultiPiece:
    def test_qm_with_multi_piece_files(self, trace):
        config = SimulationConfig(
            seed=5, files_per_day=10, pieces_per_file=3,
            variant=ProtocolVariant.MBT_QM, files_per_contact=5,
        )
        result = Simulation(trace, config).run()
        # Metadata can now lead files (attached metadata arrives with
        # the first piece; completion needs all three).
        assert result.metadata_delivery_ratio >= result.file_delivery_ratio

    def test_partial_files_do_not_count(self, trace):
        few = Simulation(
            trace,
            SimulationConfig(seed=5, files_per_day=10, pieces_per_file=4,
                             files_per_contact=1),
        ).run()
        whole = Simulation(
            trace,
            SimulationConfig(seed=5, files_per_day=10, pieces_per_file=1,
                             files_per_contact=1),
        ).run()
        assert few.file_delivery_ratio <= whole.file_delivery_ratio


class TestBoundedStores:
    def test_metadata_capacity_respected_throughout(self, trace):
        sim = Simulation(
            trace,
            SimulationConfig(seed=5, files_per_day=30, metadata_capacity=10),
        )
        sim.run()
        for state in sim.states.values():
            assert len(state.metadata) <= 10

    def test_utility_policy_end_to_end(self, trace):
        result = Simulation(
            trace,
            SimulationConfig(seed=5, files_per_day=30, metadata_capacity=10,
                             metadata_policy="utility"),
        ).run()
        assert 0.0 <= result.file_delivery_ratio <= 1.0


class TestHorizon:
    def test_num_days_cuts_contacts(self, trace):
        short = Simulation(trace, SimulationConfig(seed=5, files_per_day=10,
                                                   num_days=1)).run()
        full = Simulation(trace, SimulationConfig(seed=5, files_per_day=10)).run()
        assert short.extra["num_days"] == 1.0
        assert short.queries_generated < full.queries_generated

    def test_clique_trace_full_run(self):
        trace = generate_nus_trace(
            NUSConfig(num_students=20, num_courses=4, num_days=3), seed=1
        )
        result = Simulation(
            trace,
            SimulationConfig(seed=1, files_per_day=10,
                             frequent_contact_max_gap_days=1.0),
        ).run()
        assert result.queries_generated > 0


class TestCLIValidate:
    def test_validate_command_passes(self, capsys):
        from repro.cli import main as cli_main

        # The fast validation takes ~20 s; its rows are exercised by
        # benchmarks/bench_claims.py. Here we only check wiring via --help.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["validate", "--help"])
        assert excinfo.value.code == 0
        assert "--scale" in capsys.readouterr().out
