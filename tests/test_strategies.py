"""Tests for adversarial strategies and reputation-hardened credits.

Covers the plan/assignment layer (:mod:`repro.core.strategies`), the
:class:`~repro.core.credits.ReputationCreditLedger` unit semantics, the
engine-level behavior of every strategy on live runs, determinism of
adversarial runs, and the degradation/recovery property the
``figrobust`` panel is built on.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.credits import (
    CREDIT_POLICIES,
    REPUTATION_NEUTRAL,
    CreditLedger,
    ReputationCreditLedger,
    make_ledger,
)
from repro.core.strategies import (
    ADVERSARY_COUNTER_NAMES,
    DEFAULT_MIX,
    HONEST,
    STRATEGIES,
    STRATEGY_NAMES,
    AdversaryPlan,
    AdversaryState,
    parse_mix,
)
from repro.detlint.rules import rules_for_path
from repro.detlint.runner import lint_paths
from repro.detlint.sanitizer import result_fingerprint
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import DAY, NodeId


def small_trace(seed: int = 0):
    return generate_dieselnet_trace(DieselNetConfig(num_buses=10, num_days=3), seed)


def adversarial_config(mix, fraction=0.4, policy="plain", **overrides):
    defaults = dict(
        files_per_day=6,
        num_days=3,
        tit_for_tat=True,
        seed=1,
        adversaries=AdversaryPlan(fraction=fraction, mix=mix, seed=1),
        credit_policy=policy,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------- mix parsing


class TestParseMix:
    def test_bare_names_get_weight_one(self):
        assert parse_mix("polluter,free_rider") == (
            ("free_rider", 1.0),
            ("polluter", 1.0),
        )

    def test_explicit_weights(self):
        assert parse_mix("polluter=3, exploiter=0.5") == (
            ("exploiter", 0.5),
            ("polluter", 3.0),
        )

    def test_order_insensitive(self):
        assert parse_mix("a_b".replace("a_b", "polluter,exploiter")) == parse_mix(
            "exploiter,polluter"
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            parse_mix("saboteur")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            parse_mix("polluter,polluter=2")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_mix(" , ")


# ------------------------------------------------------------------ the plan


class TestAdversaryPlan:
    def test_default_is_clean_and_frozen(self):
        plan = AdversaryPlan()
        assert plan.is_clean()
        with pytest.raises(FrozenInstanceError):
            plan.fraction = 0.5

    def test_pickles(self):
        plan = AdversaryPlan(fraction=0.3, mix=(("polluter", 2.0),), seed=9)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            AdversaryPlan(fraction=1.5)
        with pytest.raises(ValueError, match="fraction"):
            AdversaryPlan(fraction=-0.1)

    def test_mix_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            AdversaryPlan(fraction=0.1, mix=(("saboteur", 1.0),))
        with pytest.raises(ValueError, match="positive"):
            AdversaryPlan(fraction=0.1, mix=(("polluter", 0.0),))
        with pytest.raises(ValueError, match="at least one"):
            AdversaryPlan(fraction=0.1, mix=())

    def test_normalized_mix_sums_to_one(self):
        plan = AdversaryPlan(fraction=0.1, mix=(("polluter", 3.0), ("exploiter", 1.0)))
        normalized = plan.normalized_mix()
        assert [name for name, _ in normalized] == sorted(n for n, _ in normalized)
        assert sum(w for _, w in normalized) == pytest.approx(1.0)

    def test_registry_covers_default_mix(self):
        assert set(STRATEGY_NAMES) == set(STRATEGIES)
        assert "honest" in STRATEGIES and STRATEGIES["honest"] is HONEST
        assert all(name in STRATEGIES for name, _ in DEFAULT_MIX)


class TestAdversaryState:
    NODES = tuple(NodeId(i) for i in range(20))

    def test_assignment_deterministic(self):
        plan = AdversaryPlan(fraction=0.4, seed=3)
        a = AdversaryState(plan, self.NODES, run_seed=7)
        b = AdversaryState(plan, self.NODES, run_seed=7)
        assert a.assignments() == b.assignments()
        assert a.polluter_factory_seed == b.polluter_factory_seed

    def test_assignment_depends_on_both_seeds(self):
        plan = AdversaryPlan(fraction=0.4, seed=3)
        base = AdversaryState(plan, self.NODES, run_seed=7).assignments()
        other_run = AdversaryState(plan, self.NODES, run_seed=8).assignments()
        other_plan = AdversaryState(replace(plan, seed=4), self.NODES, 7).assignments()
        assert base != other_run or base != other_plan

    def test_fraction_rounds_to_node_count(self):
        plan = AdversaryPlan(fraction=0.4)
        state = AdversaryState(plan, self.NODES, run_seed=0)
        assert len(state.nodes) == round(0.4 * len(self.NODES))

    def test_unassigned_nodes_are_honest(self):
        state = AdversaryState(AdversaryPlan(fraction=0.2), self.NODES, run_seed=0)
        honest = [n for n in self.NODES if n not in state.nodes]
        assert honest and all(state.strategy_of(n) is HONEST for n in honest)

    def test_census_counts_every_strategy_name(self):
        state = AdversaryState(AdversaryPlan(fraction=0.5), self.NODES, run_seed=1)
        census = state.nodes_by_strategy()
        assert set(census) == {n for n in STRATEGY_NAMES if n != "honest"}
        assert sum(census.values()) == len(state.nodes)

    def test_counters_start_zero_and_count(self):
        state = AdversaryState(AdversaryPlan(fraction=0.5), self.NODES, run_seed=1)
        assert set(state.counters) == set(ADVERSARY_COUNTER_NAMES)
        assert all(v == 0 for v in state.counters.values())
        state.count("fakes_seeded", 3)
        assert state.counters["fakes_seeded"] == 3


# ------------------------------------------------------- reputation ledger


class TestReputationCreditLedger:
    def test_make_ledger_dispatch(self):
        assert type(make_ledger("plain", NodeId(0))) is CreditLedger
        assert type(make_ledger("reputation", NodeId(0))) is ReputationCreditLedger
        with pytest.raises(ValueError, match="unknown credit policy"):
            make_ledger("karma", NodeId(0))
        assert set(CREDIT_POLICIES) == {"plain", "reputation"}

    def test_stranger_is_neutral(self):
        ledger = ReputationCreditLedger(NodeId(0))
        assert ledger.reputation_of(NodeId(1), now=0.0) == REPUTATION_NEUTRAL

    def test_verified_delivery_raises_reputation_and_pays_full_credit(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1), now=10.0)
        assert ledger.reputation_of(NodeId(1), now=10.0) > REPUTATION_NEUTRAL
        assert ledger.credit_of(NodeId(1)) == CreditLedger(NodeId(0)).credit_of(
            NodeId(1)
        ) + 5.0

    def test_penalty_drops_reputation_and_docks_credit(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1), now=0.0)
        credit_before = ledger.credit_of(NodeId(1))
        ledger.penalize(NodeId(1), now=1.0)
        assert ledger.reputation_of(NodeId(1), now=1.0) < REPUTATION_NEUTRAL
        assert ledger.credit_of(NodeId(1)) < credit_before

    def test_reputation_decays_toward_neutral(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.penalize(NodeId(1), now=0.0)
        punished = ledger.reputation_of(NodeId(1), now=0.0)
        later = ledger.reputation_of(NodeId(1), now=5 * DAY)
        assert punished < later < REPUTATION_NEUTRAL

    def test_over_claim_refused_and_penalized(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.reward_unrequested(NodeId(1), popularity=0.3, now=0.0, claimed=1.0)
        assert ledger.credit_of(NodeId(1)) == 0.0  # nothing paid
        assert ledger.reputation_of(NodeId(1), now=0.0) < REPUTATION_NEUTRAL

    def test_truthful_claim_paid(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.reward_unrequested(NodeId(1), popularity=0.3, now=0.0, claimed=0.3)
        assert ledger.credit_of(NodeId(1)) == pytest.approx(0.3)

    def test_plain_ledger_trusts_the_claim(self):
        ledger = CreditLedger(NodeId(0))
        ledger.reward_unrequested(NodeId(1), popularity=0.3, now=0.0, claimed=1.0)
        assert ledger.credit_of(NodeId(1)) == pytest.approx(1.0)

    def test_effective_credit_scaled_by_reputation(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.reward_unrequested(NodeId(1), popularity=1.0, now=0.0)
        raw = ledger.credit_of(NodeId(1))
        assert ledger.effective_credit(NodeId(1), now=0.0) == pytest.approx(
            raw * ledger.reputation_of(NodeId(1), now=0.0)
        )

    def test_requester_weights_discount_low_reputation(self):
        ledger = ReputationCreditLedger(NodeId(0))
        for peer in (NodeId(1), NodeId(2)):
            ledger.reward_requested(peer, now=0.0)
        honest_only = ledger.weight_of_requesters([NodeId(1)], now=0.0)
        ledger.penalize(NodeId(2), now=0.0)
        ledger.penalize(NodeId(2), now=0.0)
        both = ledger.weight_of_requesters([NodeId(1), NodeId(2)], now=0.0)
        plain = CreditLedger(NodeId(0))
        for peer in (NodeId(1), NodeId(2)):
            plain.reward_requested(peer)
        assert both < plain.weight_of_requesters([NodeId(1), NodeId(2)])
        assert both > honest_only  # docked, not erased

    def test_reputations_snapshot_lists_observed_peers_only(self):
        ledger = ReputationCreditLedger(NodeId(0))
        ledger.reward_requested(NodeId(1), now=0.0)
        snapshot = ledger.reputations(now=0.0)
        assert set(snapshot) == {NodeId(1)}


# ---------------------------------------------------------- live-run behavior


class TestStrategiesInLiveRuns:
    def run(self, mix, policy="plain", **overrides):
        config = adversarial_config(mix, policy=policy, **overrides)
        sim = Simulation(small_trace(1), config)
        result = sim.run()
        return sim, result

    def test_clean_plan_emits_no_adversary_counters(self):
        result = Simulation(
            small_trace(1), SimulationConfig(files_per_day=6, num_days=3, seed=1)
        ).run()
        assert not any(k.startswith("adversary.") for k in result.counters)

    def test_clean_plan_seed_does_not_matter(self):
        """A clean plan never instantiates state: its seed is inert."""
        base = adversarial_config((("polluter", 1.0),), fraction=0.0)
        a = Simulation(small_trace(1), base).run()
        b = Simulation(
            small_trace(1), replace(base, adversaries=AdversaryPlan(seed=99))
        ).run()
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_free_rider_skips_turns_and_sends_nothing(self):
        sim, result = self.run((("free_rider", 1.0),))
        assert result.counters["adversary.turns_skipped"] > 0
        for node in sim.adversary_nodes:
            assert sim.states[node].stats.metadata_sent == 0
            assert sim.states[node].stats.pieces_sent == 0

    def test_under_reporter_hides_holdings(self):
        sim, result = self.run((("under_reporter", 1.0),))
        assert result.counters["adversary.holdings_hidden"] > 0
        assert result.counters["adversary.nodes_under_reporter"] == len(
            sim.adversary_nodes
        )

    def test_polluter_seeds_and_transmits_fakes_that_get_rejected(self):
        sim, result = self.run((("polluter", 1.0),))
        assert result.counters["adversary.fakes_seeded"] > 0
        assert result.counters["adversary.fake_metadata_transmissions"] > 0
        assert result.counters["metadata_rejected_auth"] > 0

    def test_exploiter_inflates_rewards(self):
        sim, result = self.run((("exploiter", 1.0),))
        assert result.counters["adversary.rewards_inflated"] > 0

    def test_exploiter_reputation_drops_under_reputation_policy(self):
        sim, __ = self.run((("exploiter", 1.0),), policy="reputation")
        exploiters = sim.adversary_nodes
        honest = sorted(set(sim.states) - exploiters)
        end = sim.config.num_days * DAY
        judged = [
            sim.states[h].credits.reputation_of(x, end)
            for h in honest
            for x in sorted(exploiters)
            if sim.states[h].credits.reputations(end).get(x) is not None
        ]
        assert judged and min(judged) < REPUTATION_NEUTRAL

    def test_node_report_names_strategies(self):
        sim, __ = self.run((("polluter", 1.0),))
        rows = sim.node_report()
        by_strategy = {row["node"]: row["strategy"] for row in rows}
        for node in sim.adversary_nodes:
            assert by_strategy[node] == "polluter"

    def test_honest_metrics_cover_honest_population_only(self):
        sim, result = self.run((("free_rider", 1.0),))
        assert "adversary.honest_file_ratio" in result.extra
        assert result.extra["adversary.honest_queries"] > 0
        assert result.extra["adversary_nodes"] == float(len(sim.adversary_nodes))


class TestOneRoleSource:
    """The plan is the only place a node's role comes from."""

    @settings(max_examples=40, deadline=None)
    @given(
        names=st.sets(st.sampled_from([n for n in STRATEGY_NAMES if n != "honest"]), min_size=1),
        fraction=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
        plan_seed=st.integers(0, 99),
        seed=st.integers(0, 99),
    )
    def test_node_strategy_and_role_sets_follow_the_plan(
        self, names, fraction, plan_seed, seed
    ):
        plan = AdversaryPlan(
            fraction=fraction, mix=tuple((name, 1.0) for name in sorted(names)), seed=plan_seed
        )
        config = SimulationConfig(
            files_per_day=6, num_days=1, seed=seed, internet_access_fraction=0.4,
            adversaries=plan,
        )
        sim = Simulation(small_trace(1), config)
        state = sim.adversary
        if plan.is_clean():
            assert state is None and not sim.adversary_nodes
            assert all(s.strategy is HONEST for s in sim.states.values())
            return
        for node, node_state in sim.states.items():
            assert node_state.strategy is state.strategy_of(node)
        assert state.hiders == {
            node for node, s in sim.states.items() if s.strategy.hides_holdings
        }
        assert state.polluters == {
            node for node, s in sim.states.items() if s.strategy.pollutes
        }
        assert sim.adversary_nodes == {
            node for node, s in sim.states.items() if s.strategy is not HONEST
        }


class TestAdversarialDeterminism:
    def test_double_run_fingerprint_stable(self):
        config = adversarial_config(DEFAULT_MIX, policy="reputation")
        a = Simulation(small_trace(1), config).run()
        b = Simulation(small_trace(1), config).run()
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_adversary_streams_do_not_perturb_role_picks(self):
        """Activating the plan must not re-deal the access roles."""
        clean = SimulationConfig(
            files_per_day=6, num_days=3, seed=1, internet_access_fraction=0.4
        )
        dirty = replace(
            clean, adversaries=AdversaryPlan(fraction=0.3, mix=(("polluter", 1.0),))
        )
        a = Simulation(small_trace(1), clean)
        b = Simulation(small_trace(1), dirty)
        assert a.access_nodes == b.access_nodes


class TestDegradationAndRecovery:
    """The property the figrobust panel plots, at smoke-test size."""

    MIX = (("exploiter", 1.0), ("polluter", 3.0))

    def honest_ratio(self, fraction, policy):
        from repro.experiments.workloads import dieselnet_base_config, dieselnet_trace

        config = replace(
            dieselnet_base_config(seed=1),
            tit_for_tat=True,
            encrypted_choking=True,
            adversaries=AdversaryPlan(fraction=fraction, mix=self.MIX, seed=1),
            credit_policy=policy,
        )
        result = Simulation(dieselnet_trace("fast", seed=1), config).run()
        if fraction == 0:
            return result.file_delivery_ratio
        return result.extra["adversary.honest_file_ratio"]

    def test_plain_degrades_and_reputation_recovers(self):
        clean = self.honest_ratio(0.0, "plain")
        plain = self.honest_ratio(0.45, "plain")
        reputation = self.honest_ratio(0.45, "reputation")
        assert plain < clean  # adversaries hurt the paper's scheme
        assert reputation > plain  # the hardened ledger recovers ground


# ------------------------------------------------------------------- linting


class TestDeterminismLintScope:
    def test_strategies_module_is_in_sim_core_scope(self):
        """The determinism rules apply to the new module and it is clean."""
        import repro.core.strategies as module

        assert "DET002" in rules_for_path(module.__file__)
        report = lint_paths([module.__file__])
        assert report.findings == []
