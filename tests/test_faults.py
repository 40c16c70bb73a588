"""Tests for deterministic fault injection (:mod:`repro.faults`)."""

from __future__ import annotations

import pickle
from dataclasses import replace
from typing import Dict, Sequence

import pytest

from repro.catalog.files import piece_checksum
from repro.catalog.server import FileServer, MetadataServer
from repro.core.mbt import MobileBitTorrent, ProtocolConfig
from repro.faults import (
    FAULT_COUNTER_NAMES,
    FaultInjector,
    FaultPlan,
    corrupt_payload,
)
from repro.net.medium import ContactBudget
from repro.sim.engine import SimulationError
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import DAY, NodeId

from conftest import clique_contact, make_metadata, make_node, make_query, pair_contact


def small_trace(seed: int = 0):
    return generate_dieselnet_trace(DieselNetConfig(num_buses=8, num_days=3), seed)


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(files_per_day=5, num_days=3, seed=0)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ------------------------------------------------------------------- FaultPlan


class TestFaultPlan:
    def test_default_plan_is_clean(self):
        assert FaultPlan().is_clean()

    def test_any_rate_makes_it_dirty(self):
        for field in (
            "loss_rate",
            "corruption_rate",
            "contact_drop_rate",
            "contact_truncation_rate",
            "churn_rate",
        ):
            assert not FaultPlan(**{field: 0.1}).is_clean()

    def test_seed_alone_stays_clean(self):
        # Changing only the fault seed of an all-zero plan cannot change
        # behaviour, so it must still count as clean.
        assert FaultPlan(seed=1234).is_clean()

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(churn_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(churn_downtime_days=0.0)

    def test_picklable_and_hashable(self):
        plan = FaultPlan(loss_rate=0.2, churn_rate=0.1, seed=7)
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(replace(plan))


class TestCorruptPayload:
    def test_always_breaks_checksum(self):
        payload = b"some piece payload"
        mangled = corrupt_payload(payload)
        assert mangled != payload
        assert len(mangled) == len(payload)
        assert piece_checksum(mangled) != piece_checksum(payload)

    def test_empty_payload_still_corrupts(self):
        assert corrupt_payload(b"") == b"\xff"


# ---------------------------------------------------------------- FaultInjector


class TestInjectorDeterminism:
    def test_same_seeds_same_draws(self):
        plan = FaultPlan(loss_rate=0.5, churn_rate=0.3)
        a = FaultInjector(plan, run_seed=5)
        b = FaultInjector(plan, run_seed=5)
        receivers = frozenset(NodeId(i) for i in range(20))
        assert a.deliverable(receivers, "metadata") == b.deliverable(receivers, "metadata")
        nodes = [NodeId(i) for i in range(10)]
        assert a.churn_schedule(nodes, 5) == b.churn_schedule(nodes, 5)

    def test_run_seed_changes_streams(self):
        plan = FaultPlan(loss_rate=0.5)
        a = FaultInjector(plan, run_seed=0)
        b = FaultInjector(plan, run_seed=1)
        receivers = frozenset(NodeId(i) for i in range(64))
        assert a.deliverable(receivers, "piece") != b.deliverable(receivers, "piece")

    def test_counters_start_at_zero(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.1), run_seed=0)
        assert set(injector.counters) == set(FAULT_COUNTER_NAMES)
        assert all(v == 0 for v in injector.counters.values())


class TestTransformContact:
    def test_drop_rate_one_drops_everything(self):
        injector = FaultInjector(FaultPlan(contact_drop_rate=1.0), run_seed=0)
        transformed, scale = injector.transform_contact(pair_contact(0.0, 60.0, 0, 1))
        assert transformed is None and scale == 0.0
        assert injector.counters["contacts_dropped"] == 1

    def test_truncation_keeps_a_fraction(self):
        injector = FaultInjector(FaultPlan(contact_truncation_rate=1.0), run_seed=0)
        contact = pair_contact(100.0, 200.0, 0, 1)
        truncated, keep = injector.transform_contact(contact)
        assert truncated is not None
        assert truncated.members == contact.members
        assert truncated.start == contact.start
        assert 0.1 <= keep <= 0.9
        assert truncated.duration == pytest.approx(contact.duration * keep)
        assert injector.counters["contacts_truncated"] == 1

    def test_zero_rates_pass_through_unchanged(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.5), run_seed=0)
        contact = pair_contact(0.0, 60.0, 0, 1)
        transformed, scale = injector.transform_contact(contact)
        assert transformed is contact and scale == 1.0


class TestDeliverable:
    def test_loss_rate_one_loses_everyone(self):
        injector = FaultInjector(FaultPlan(loss_rate=1.0), run_seed=0)
        receivers = frozenset(NodeId(i) for i in range(5))
        assert injector.deliverable(receivers, "metadata") == frozenset()
        assert injector.counters["metadata_losses"] == 5

    def test_zero_loss_returns_same_object(self):
        injector = FaultInjector(FaultPlan(corruption_rate=0.5), run_seed=0)
        receivers = frozenset({NodeId(0), NodeId(1)})
        assert injector.deliverable(receivers, "piece") is receivers


class TestChurnSchedule:
    def test_zero_churn_is_empty(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.5), run_seed=0)
        assert injector.churn_schedule([NodeId(0)], 10) == []

    def test_full_churn_crashes_every_node_daily_at_most_once(self):
        plan = FaultPlan(churn_rate=1.0, churn_downtime_days=0.25)
        injector = FaultInjector(plan, run_seed=0)
        nodes = [NodeId(i) for i in range(4)]
        schedule = injector.churn_schedule(nodes, 3)
        assert schedule  # something always crashes at rate 1.0
        crash_times = [at for _, at, _ in schedule]
        assert crash_times == sorted(crash_times)
        per_node: Dict[NodeId, list] = {}
        for node, at, rebirth in schedule:
            assert rebirth == pytest.approx(at + 0.25 * DAY)
            per_node.setdefault(node, []).append((at, rebirth))
        for intervals in per_node.values():
            for (_, prev_rebirth), (at, _) in zip(intervals, intervals[1:]):
                assert at >= prev_rebirth  # never crash while already down


class _ScriptedRng:
    """Stand-in RNG replaying a fixed ``random()`` sequence (then 1.0)."""

    def __init__(self, values: Sequence[float]) -> None:
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0) if self._values else 1.0


class TestChurnScheduleEdgeCases:
    """Boundary behavior of churn: t=0 crashes, overlap, long downtime."""

    def test_crash_at_exact_time_zero(self):
        # Rate draw 0.0 (< churn_rate -> crash) then time draw 0.0:
        # the very first instant of the simulation is a legal crash
        # time and must not be skipped by the down-until bookkeeping.
        injector = FaultInjector(
            FaultPlan(churn_rate=0.5, churn_downtime_days=0.25), run_seed=0
        )
        injector._rng_churn = _ScriptedRng([0.0, 0.0])
        schedule = injector.churn_schedule([NodeId(3)], 1)
        assert schedule == [(NodeId(3), 0.0, 0.25 * DAY)]

    def test_repeated_churn_same_node_non_overlapping(self):
        # Day 0: crash at 0.1 d, down until 0.35 d. Day 1: crash at
        # 1.5 d — past the rebirth, so both events survive, in order.
        injector = FaultInjector(
            FaultPlan(churn_rate=1.0, churn_downtime_days=0.25), run_seed=0
        )
        injector._rng_churn = _ScriptedRng([0.0, 0.1, 0.0, 0.5])
        schedule = injector.churn_schedule([NodeId(1)], 2)
        assert len(schedule) == 2
        (n1, at1, re1), (n2, at2, re2) = schedule
        assert n1 == n2 == NodeId(1)
        assert at1 == pytest.approx(0.1 * DAY)
        assert at2 == pytest.approx(1.5 * DAY)
        assert at2 >= re1

    def test_repeated_churn_same_node_overlapping_is_skipped(self):
        # Downtime of 2 days swallows day 1's draw (1.2 d < 2.1 d):
        # the second crash would land while already down and is skipped.
        injector = FaultInjector(
            FaultPlan(churn_rate=1.0, churn_downtime_days=2.0), run_seed=0
        )
        injector._rng_churn = _ScriptedRng([0.0, 0.1, 0.0, 0.2])
        schedule = injector.churn_schedule([NodeId(1)], 2)
        assert len(schedule) == 1
        assert schedule[0][0] == NodeId(1)

    def test_rebirth_past_sim_end_leaves_node_down(self):
        # Downtime far beyond the horizon: every node crashes once and
        # no rebirth event ever fires inside the run.
        plan = FaultPlan(churn_rate=1.0, churn_downtime_days=100.0)
        result = Simulation(small_trace(), small_config(faults=plan)).run()
        assert result.counters["faults.crashes"] > 0
        assert result.counters["faults.rebirths"] == 0


class TestContactBudgetScaled:
    def test_identity_scale_returns_self(self):
        budget = ContactBudget(3, 3)
        assert budget.scaled(1.0) is budget
        assert budget.scaled(2.0) is budget

    def test_fractional_scale_floors(self):
        assert ContactBudget(3, 5).scaled(0.5) == ContactBudget(1, 2)
        assert ContactBudget(1, 1).scaled(0.1) == ContactBudget(0, 0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            ContactBudget(3, 3).scaled(-0.5)


# -------------------------------------------------- engine-level fault wiring


class FaultHarness:
    """A hand-wired engine with an active fault injector."""

    def __init__(self, registry, plan: FaultPlan, num_nodes: int = 4) -> None:
        self.states = {
            NodeId(i): make_node(registry, node=i) for i in range(num_nodes)
        }
        self.metrics = MetricsCollector()
        self.injector = FaultInjector(plan, run_seed=0)
        self.engine = MobileBitTorrent(
            self.states,
            MetadataServer(),
            FileServer(),
            self.metrics,
            ProtocolConfig(),
            faults=self.injector,
        )


class TestCorruptedBroadcast:
    """Satellite: a corrupted piece is rejected by every clique receiver."""

    def test_rejected_by_all_receivers_and_never_stored(self, registry):
        h = FaultHarness(registry, FaultPlan(corruption_rate=1.0))
        record = make_metadata(registry)
        from repro.catalog.files import piece_payload

        sender = h.states[NodeId(0)]
        sender.accept_metadata(record, 0.0)
        sender.accept_piece(
            record.uri, 0, piece_payload(record.uri, 0), record.checksums[0]
        )
        h.engine.handle_contact(clique_contact(0.0, 60.0, [0, 1, 2, 3]), 0.0)

        for i in (1, 2, 3):
            state = h.states[NodeId(i)]
            assert state.pieces.pieces_of(record.uri) == frozenset()

        rejections = sum(
            h.states[NodeId(i)].stats.checksum_rejections for i in (1, 2, 3)
        )
        assert rejections > 0
        assert h.injector.counters["corrupt_receipts"] == rejections
        assert h.injector.counters["pieces_corrupted"] >= 1
        # The sender's copy is untouched — only the transmission was hit.
        assert sender.pieces.pieces_of(record.uri) == {0}


class TestChurnWiring:
    def test_crash_wipes_and_mutes_then_rebirth_restores(self, registry):
        h = FaultHarness(registry, FaultPlan(churn_rate=0.5), num_nodes=3)
        record = make_metadata(registry)
        h.states[NodeId(1)].accept_metadata(record, 0.0)
        h.engine.crash_node(NodeId(1), wipe=True)
        assert h.engine.down_nodes == frozenset({NodeId(1)})
        assert record.uri not in h.states[NodeId(1)].metadata
        assert h.injector.counters["crashes"] == 1

        # A pair contact with the crashed node is skipped entirely.
        h.states[NodeId(0)].accept_metadata(record, 0.0)
        h.engine.handle_contact(pair_contact(10.0, 70.0, 0, 1), 10.0)
        assert record.uri not in h.states[NodeId(1)].metadata
        assert h.injector.counters["contacts_skipped_down"] == 1

        # A clique contact proceeds among the survivors.
        h.engine.handle_contact(clique_contact(100.0, 160.0, [0, 1, 2]), 100.0)
        assert record.uri in h.states[NodeId(2)].metadata
        assert record.uri not in h.states[NodeId(1)].metadata

        h.engine.revive_node(NodeId(1))
        assert h.engine.down_nodes == frozenset()
        assert h.injector.counters["rebirths"] == 1
        h.engine.handle_contact(pair_contact(200.0, 260.0, 0, 1), 200.0)
        assert record.uri in h.states[NodeId(1)].metadata

    def test_crash_without_wipe_keeps_stores(self, registry):
        h = FaultHarness(registry, FaultPlan(churn_rate=0.5, wipe_on_crash=False))
        record = make_metadata(registry)
        h.states[NodeId(1)].accept_metadata(record, 0.0)
        h.engine.crash_node(NodeId(1), wipe=False)
        assert record.uri in h.states[NodeId(1)].metadata

    def test_double_crash_counts_once(self, registry):
        h = FaultHarness(registry, FaultPlan(churn_rate=0.5))
        h.engine.crash_node(NodeId(0), wipe=True)
        h.engine.crash_node(NodeId(0), wipe=True)
        assert h.injector.counters["crashes"] == 1


class TestNodeWipe:
    def test_wipe_clears_learned_state_keeps_own_queries(self, registry):
        node = make_node(registry, node=1)
        record = make_metadata(registry)
        from repro.catalog.files import piece_payload

        node.accept_metadata(record, 0.0)
        node.accept_piece(
            record.uri, 0, piece_payload(record.uri, 0), record.checksums[0]
        )
        query = make_query(1, record.uri, ["island"])
        node.add_own_query(query)

        node.wipe()
        assert record.uri not in node.metadata
        assert node.pieces.pieces_of(record.uri) == frozenset()
        assert query in node.own_queries(10.0)


# -------------------------------------------------------------- whole-sim runs


class TestSimulationFaults:
    def test_clean_run_has_no_fault_keys(self):
        result = Simulation(small_trace(), small_config()).run()
        assert not any(k.startswith("faults.") for k in result.extra)
        assert "events_fault" not in result.extra

    def test_clean_plan_seed_does_not_change_results(self):
        # An all-zero plan never instantiates an injector, whatever its
        # seed — results are bitwise identical to the default config.
        base = Simulation(small_trace(), small_config()).run()
        reseeded = Simulation(
            small_trace(), small_config(faults=FaultPlan(seed=99))
        ).run()
        assert reseeded.to_dict() == base.to_dict()

    def test_fault_runs_are_reproducible(self):
        plan = FaultPlan(
            loss_rate=0.2,
            corruption_rate=0.2,
            contact_drop_rate=0.1,
            contact_truncation_rate=0.2,
            churn_rate=0.1,
        )
        first = Simulation(small_trace(), small_config(faults=plan)).run()
        second = Simulation(small_trace(), small_config(faults=plan)).run()
        assert first.to_dict() == second.to_dict()

    def test_loss_degrades_delivery(self):
        clean = Simulation(small_trace(), small_config()).run()
        lossy = Simulation(
            small_trace(), small_config(faults=FaultPlan(loss_rate=0.5))
        ).run()
        assert lossy.file_delivery_ratio <= clean.file_delivery_ratio
        assert lossy.extra["faults.metadata_losses"] > 0
        assert lossy.extra["faults.piece_losses"] > 0

    def test_total_loss_kills_dtn_transfers(self):
        result = Simulation(
            small_trace(),
            small_config(faults=FaultPlan(loss_rate=1.0), internet_access_fraction=0.0),
        ).run()
        # Nothing can cross a contact; only Internet syncs could deliver
        # and there are no access nodes.
        assert result.extra["metadata_transmissions"] == 0 or (
            result.metadata_delivery_ratio == 0.0
        )
        assert result.file_delivery_ratio == 0.0

    def test_full_contact_drop_processes_no_contacts(self):
        result = Simulation(
            small_trace(), small_config(faults=FaultPlan(contact_drop_rate=1.0))
        ).run()
        assert result.extra["contacts_processed"] > 0  # offered by the trace…
        assert result.extra["cliques_processed"] == 0  # …but none survives
        assert result.extra["faults.contacts_dropped"] > 0

    def test_corruption_counter_matches_checksum_rejections(self):
        sim = Simulation(
            small_trace(), small_config(faults=FaultPlan(corruption_rate=1.0))
        )
        result = sim.run()
        rejections = sum(
            state.stats.checksum_rejections for state in sim.states.values()
        )
        assert result.extra["faults.corrupt_receipts"] == rejections
        # With every transmission corrupted, no file crosses a contact.
        assert all(
            state.stats.files_completed == 0
            for node, state in sim.states.items()
            if node not in sim.access_nodes
        )

    def test_churn_counters_fire(self):
        result = Simulation(
            small_trace(),
            small_config(faults=FaultPlan(churn_rate=0.5, churn_downtime_days=0.2)),
        ).run()
        assert result.extra["faults.crashes"] > 0
        assert result.extra["faults.rebirths"] <= result.extra["faults.crashes"]
        assert result.extra["events_fault"] > 0

    def test_max_events_budget_aborts_run(self):
        with pytest.raises(SimulationError, match="event budget exhausted"):
            Simulation(small_trace(), small_config(max_events=3)).run()

    def test_generous_max_events_is_harmless(self):
        base = Simulation(small_trace(), small_config()).run()
        budgeted = Simulation(
            small_trace(), small_config(max_events=1_000_000)
        ).run()
        assert budgeted.to_dict() == base.to_dict()
