"""Integration tests for the end-to-end simulation runner."""

from __future__ import annotations

import pytest

from repro.catalog.metadata import PublisherRegistry
from repro.core.mbt import ProtocolVariant
from repro.core.node import NodeState
from repro.core.strategies import STRATEGIES, AdversaryPlan
from repro.detlint.sanitizer import result_fingerprint
from repro.experiments import workloads
from repro.runtime.harness import RuntimeHarness
from repro.sim.runner import Simulation, SimulationConfig, run_simulation
from repro.traces.base import ContactTrace
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.nus import NUSConfig, generate_nus_trace
from repro.types import noon_of_day


@pytest.fixture(scope="module")
def diesel_trace() -> ContactTrace:
    return generate_dieselnet_trace(DieselNetConfig(num_buses=14, num_days=5), seed=3)


@pytest.fixture(scope="module")
def nus_small() -> ContactTrace:
    return generate_nus_trace(
        NUSConfig(num_students=30, num_courses=6, num_days=5), seed=3
    )


def free_riders(fraction: float) -> AdversaryPlan:
    return AdversaryPlan(fraction=fraction, mix=(("free_rider", 1.0),))


def run(trace, **overrides):
    config = SimulationConfig(**{"seed": 1, "files_per_day": 20, **overrides})
    return run_simulation(trace, config)


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(internet_access_fraction=1.5)

    def test_bad_files_per_day(self):
        with pytest.raises(ValueError):
            SimulationConfig(files_per_day=0)

    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            SimulationConfig(ttl_days=0.0)

    def test_negative_budgets(self):
        with pytest.raises(ValueError):
            SimulationConfig(metadata_per_contact=-1)

    @pytest.mark.parametrize("days", [0, -2])
    def test_run_length_must_be_positive(self, days):
        with pytest.raises(ValueError, match="num_days"):
            SimulationConfig(num_days=days)
        assert SimulationConfig(num_days=1).num_days == 1
        assert SimulationConfig(num_days=None).num_days is None

    @pytest.mark.parametrize("gap", [0.0, -1.0])
    def test_frequent_contact_gap_must_be_positive(self, gap):
        with pytest.raises(ValueError, match="frequent_contact_max_gap_days"):
            SimulationConfig(frequent_contact_max_gap_days=gap)

    def test_with_variant(self):
        config = SimulationConfig()
        assert config.with_variant(ProtocolVariant.MBT_QM).variant is (
            ProtocolVariant.MBT_QM
        )
        assert config.variant is ProtocolVariant.MBT  # original untouched

    def test_trace_needs_two_nodes(self):
        with pytest.raises(ValueError):
            Simulation(ContactTrace([]), SimulationConfig())


class TestDeterminism:
    def test_same_seed_same_result(self, diesel_trace):
        a = run(diesel_trace, seed=7)
        b = run(diesel_trace, seed=7)
        assert a.metadata_delivery_ratio == b.metadata_delivery_ratio
        assert a.file_delivery_ratio == b.file_delivery_ratio
        assert a.extra["piece_transmissions"] == b.extra["piece_transmissions"]

    def test_different_seed_changes_roles(self, diesel_trace):
        sim_a = Simulation(diesel_trace, SimulationConfig(seed=1))
        sim_b = Simulation(diesel_trace, SimulationConfig(seed=2))
        assert sim_a.access_nodes != sim_b.access_nodes


class TestBasicInvariants:
    def test_ratios_in_unit_interval(self, diesel_trace):
        result = run(diesel_trace)
        for value in (
            result.metadata_delivery_ratio,
            result.file_delivery_ratio,
            result.access_metadata_delivery_ratio,
            result.access_file_delivery_ratio,
        ):
            assert 0.0 <= value <= 1.0

    def test_file_delivery_never_exceeds_metadata_delivery(self, diesel_trace):
        # A file cannot be selected without its metadata.
        for variant in ProtocolVariant:
            result = run(diesel_trace, variant=variant)
            assert result.file_delivery_ratio <= result.metadata_delivery_ratio

    def test_access_node_count_respects_fraction(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig(internet_access_fraction=0.5))
        assert len(sim.access_nodes) == round(0.5 * diesel_trace.num_nodes)

    def test_queries_are_generated(self, diesel_trace):
        result = run(diesel_trace)
        assert result.queries_generated > 0

    def test_num_days_defaults_to_trace_span(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig())
        assert sim.num_days() == 5

    def test_num_days_override(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig(num_days=2))
        assert sim.num_days() == 2

    def test_access_nodes_deliver_internally(self, diesel_trace):
        result = run(diesel_trace, internet_access_fraction=0.5)
        # Access nodes query and download directly: near-perfect ratios.
        assert result.access_file_delivery_ratio > 0.9


class TestPaperOrdering:
    def test_variant_ordering_on_dieselnet(self, diesel_trace):
        results = {
            variant: run(diesel_trace, variant=variant, files_per_day=40)
            for variant in ProtocolVariant
        }
        mbt = results[ProtocolVariant.MBT]
        mbt_q = results[ProtocolVariant.MBT_Q]
        mbt_qm = results[ProtocolVariant.MBT_QM]
        assert mbt.metadata_delivery_ratio >= mbt_q.metadata_delivery_ratio
        assert mbt_q.metadata_delivery_ratio > mbt_qm.metadata_delivery_ratio
        assert mbt.file_delivery_ratio >= mbt_qm.file_delivery_ratio

    def test_more_access_nodes_help(self, diesel_trace):
        sparse = run(diesel_trace, internet_access_fraction=0.1)
        dense = run(diesel_trace, internet_access_fraction=0.7)
        assert dense.file_delivery_ratio > sparse.file_delivery_ratio

    def test_longer_ttl_helps(self, diesel_trace):
        short = run(diesel_trace, ttl_days=1.0)
        long = run(diesel_trace, ttl_days=4.0)
        assert long.file_delivery_ratio >= short.file_delivery_ratio

    def test_bigger_budgets_help(self, diesel_trace):
        small = run(diesel_trace, metadata_per_contact=1, files_per_contact=1)
        big = run(diesel_trace, metadata_per_contact=8, files_per_contact=8)
        assert big.file_delivery_ratio >= small.file_delivery_ratio
        assert big.metadata_delivery_ratio >= small.metadata_delivery_ratio

    def test_more_files_per_day_hurt(self, diesel_trace):
        few = run(diesel_trace, files_per_day=10)
        many = run(diesel_trace, files_per_day=80)
        assert many.file_delivery_ratio <= few.file_delivery_ratio

    def test_nus_mbt_qm_flat_in_access_fraction(self, nus_small):
        lo = run(nus_small, variant=ProtocolVariant.MBT_QM,
                 internet_access_fraction=0.1)
        hi = run(nus_small, variant=ProtocolVariant.MBT_QM,
                 internet_access_fraction=0.9)
        # No file discovery: more access nodes barely move file delivery
        # (paper Fig. 3(a)). Allow generous noise.
        assert abs(hi.file_delivery_ratio - lo.file_delivery_ratio) < 0.25


class TestSelfishAndTFT:
    def test_free_rider_plan_selects_nodes(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig(adversaries=free_riders(0.5)))
        assert len(sim.adversary_nodes) == round(0.5 * diesel_trace.num_nodes)

    def test_selfish_nodes_hurt_delivery(self, diesel_trace):
        honest = run(diesel_trace)
        selfish = run(diesel_trace, adversaries=free_riders(0.6))
        assert selfish.file_delivery_ratio < honest.file_delivery_ratio

    @pytest.mark.parametrize("runner", [Simulation, RuntimeHarness])
    def test_selfish_nodes_are_free_riders(self, diesel_trace, runner, monkeypatch):
        carriers = set()
        store = NodeState.store_foreign_queries

        def recording_store(state, peer, queries):
            queries = list(queries)
            if queries:
                carriers.add(state.node)
            store(state, peer, queries)

        monkeypatch.setattr(NodeState, "store_foreign_queries", recording_store)
        sim = runner(
            diesel_trace,
            SimulationConfig(seed=1, files_per_day=20, adversaries=free_riders(0.3)),
        )
        sim.run()
        assert sim.adversary_nodes
        for node in sim.adversary_nodes:
            state = sim.states[node]
            assert state.strategy is STRATEGIES["free_rider"]
            assert state.stats.metadata_sent == state.stats.pieces_sent == 0
        assert carriers and carriers.isdisjoint(sim.adversary_nodes)
        assert any(
            sim.states[node].stats.pieces_sent > 0
            for node in sim.states
            if node not in sim.adversary_nodes
        )

    def test_tit_for_tat_runs(self, diesel_trace):
        result = run(diesel_trace, tit_for_tat=True, adversaries=free_riders(0.3))
        assert 0.0 <= result.file_delivery_ratio <= 1.0

    def test_pairwise_medium_worse_on_cliques(self, nus_small):
        broadcast = run(nus_small, broadcast=True)
        pairwise = run(nus_small, broadcast=False)
        assert pairwise.file_delivery_ratio <= broadcast.file_delivery_ratio


class TestResultExtras:
    def test_extra_counters_present(self, diesel_trace):
        result = run(diesel_trace)
        for key in ("metadata_transmissions", "piece_transmissions",
                    "num_days", "num_contacts", "access_nodes", "events"):
            assert key in result.extra

    def test_describe(self, diesel_trace):
        assert "metadata" in run(diesel_trace).describe()


class TestVerifyCachePruning:
    def test_daily_expiry_drops_expired_outcomes(self, monkeypatch):
        trace = workloads.dieselnet_trace("fast", seed=1)
        config = workloads.dieselnet_base_config(seed=1)
        sim = Simulation(trace, config)
        pruned = sim.run()
        last_expiry = noon_of_day(sim.num_days() - 1)
        cache = sim._registry._verify_cache
        assert cache
        assert all(record.expires_at > last_expiry for record, __ in cache.values())

        monkeypatch.setattr(PublisherRegistry, "forget_expired", lambda self, now: None)
        unpruned_sim = Simulation(trace, config)
        unpruned = unpruned_sim.run()
        assert len(unpruned_sim._registry._verify_cache) > len(cache)
        assert result_fingerprint(pruned) == result_fingerprint(unpruned)
