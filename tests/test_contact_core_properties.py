"""Property tests on the contact core: meaning checks on random runs.

Small randomized traces and configurations — every ``SimulationConfig``
knob except the safety valve and the profiler (see
:data:`NOT_DRAWN`), including fault plans, adversary plans, pollution,
duration-derived budgets and files of more than 64 pieces — must each
run to completion, reproduce bitwise under the detcheck sanitizer,
report delivery ratios in [0, 1] with file delivery at most metadata
delivery, never transmit more than the per-contact budgets allow, and
never let a node whose strategy does not serve a phase send in it. Budgets and serving are checked at every
contact, not only on run totals.
"""

from __future__ import annotations

import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbt import MobileBitTorrent, ProtocolVariant, SchedulingMode
from repro.core.node import EVICTION_POLICIES
from repro.core.strategies import AdversaryPlan
from repro.detlint.sanitizer import checked_run
from repro.faults import FaultPlan
from repro.sim.metrics import SimulationResult
from repro.sim.runner import SimulationConfig
from repro.traces.base import Contact, ContactTrace
from repro.types import DAY, NodeId

#: Every non-honest strategy, for adversarial draws.
ADVERSARIAL = ("exploiter", "free_rider", "polluter", "under_reporter")

#: ``SimulationConfig`` fields the random configurations leave at their
#: defaults: the event safety valve and the wall-clock profiler, which
#: change no protocol behaviour.
NOT_DRAWN = ("max_events", "profile")


def _random_trace(rng: random.Random) -> ContactTrace:
    n_nodes = rng.randint(4, 8)
    contacts = []
    for _ in range(rng.randint(15, 35)):
        start = rng.uniform(0.0, 2 * DAY)
        size = rng.randint(2, min(4, n_nodes))
        members = frozenset(NodeId(i) for i in rng.sample(range(n_nodes), size))
        contacts.append(Contact(start, start + rng.uniform(30.0, 600.0), members))
    contacts.sort(key=lambda c: (c.start, c.end, sorted(c.members)))
    return ContactTrace(contacts, name="random")


def _batched_trace(seed: int) -> ContactTrace:
    """Random trace where many contacts share the same start instant."""
    rng = random.Random(seed)
    n_nodes = 8
    contacts = []
    for _ in range(rng.randint(4, 8)):
        start = round(rng.uniform(0.0, 2 * DAY), 1)
        for _ in range(rng.randint(1, 4)):  # same-instant burst
            size = rng.randint(2, 4)
            members = frozenset(NodeId(i) for i in rng.sample(range(n_nodes), size))
            contacts.append(Contact(start, start + rng.uniform(30.0, 600.0), members))
    contacts.sort(key=lambda c: (c.start, c.end, sorted(c.members)))
    return ContactTrace(contacts, name="batched")


def _random_kwargs(rng: random.Random) -> dict:
    """One value for every ``SimulationConfig`` field outside :data:`NOT_DRAWN`."""
    faults = FaultPlan()
    if rng.random() < 0.4:
        faults = FaultPlan(
            loss_rate=rng.choice((0.0, 0.2)),
            contact_truncation_rate=rng.choice((0.0, 0.3)),
            churn_rate=rng.choice((0.0, 0.05)),
            seed=rng.randint(0, 99),
        )
    adversaries = AdversaryPlan()
    if rng.random() < 0.5:
        # Free-riders and pirates are plan strategies like the others.
        names = rng.sample(ADVERSARIAL, rng.randint(1, 3))
        adversaries = AdversaryPlan(
            fraction=rng.choice((0.25, 0.5)),
            mix=tuple(sorted((name, 1.0) for name in names)),
            polluter_fakes_per_day=rng.randint(0, 3),
            seed=rng.randint(0, 99),
        )
    return dict(
        internet_access_fraction=rng.choice((0.0, 0.4, 1.0)),
        files_per_day=rng.randint(4, 12),
        ttl_days=rng.choice((0.5, 1.0, 1.75, 3.0)),
        metadata_per_contact=rng.randint(1, 4),
        files_per_contact=rng.randint(1, 4),
        pieces_per_file=rng.choice((1, 3, 70)),
        variant=rng.choice(list(ProtocolVariant)),
        tit_for_tat=rng.random() < 0.5,
        broadcast=rng.random() < 0.7,
        scheduling=rng.choice((None, *SchedulingMode)),
        frequent_contact_max_gap_days=rng.choice((0.5, 1.0, 3.0)),
        num_days=2,
        metadata_capacity=rng.choice((None, None, 8)),
        metadata_policy=rng.choice(EVICTION_POLICIES),
        use_duration_budgets=rng.random() < 0.3,
        bandwidth_bytes_per_s=rng.choice((5_000.0, 100_000.0, 1_000_000.0)),
        verify_signatures=rng.random() < 0.8,
        encrypted_choking=rng.random() < 0.3,
        selection_policy=rng.choice(("all", "best")),
        track_popularity=rng.random() < 0.3,
        faults=faults,
        adversaries=adversaries,
        credit_policy=rng.choice(("plain", "reputation")),
        seed=rng.randint(0, 999),
    )


def _random_config(rng: random.Random) -> SimulationConfig:
    return SimulationConfig(**_random_kwargs(rng))


def _check(trace: ContactTrace, config: SimulationConfig) -> SimulationResult:
    """Run under the sanitizer and assert per-contact and run-level invariants.

    Each contact is bounded by the configured fixed budgets, or, with
    duration budgets, by the budget of the untruncated trace contact;
    faults and truncation only shrink either.
    """
    handle_contact = MobileBitTorrent.handle_contact
    contacts_checked = 0
    #: Sum of the per-contact bounds over both sanitizer runs.
    bound_totals = [0, 0]

    def checked_contact(engine: MobileBitTorrent, contact: Contact, now: float) -> None:
        nonlocal contacts_checked
        if config.use_duration_budgets:
            budget = engine._contact_budget(contact)
            meta_bound, piece_bound = budget.metadata, budget.pieces
        else:
            meta_bound, piece_bound = config.metadata_per_contact, config.files_per_contact
        bound_totals[0] += meta_bound
        bound_totals[1] += piece_bound
        counters = engine.counters
        meta_before = counters.metadata_transmissions
        pieces_before = counters.piece_transmissions
        members = [engine.states[node] for node in sorted(contact.members)]
        sent_before = [(s.stats.metadata_sent, s.stats.pieces_sent) for s in members]
        handle_contact(engine, contact, now)
        contacts_checked += 1
        assert counters.metadata_transmissions - meta_before <= meta_bound
        assert counters.piece_transmissions - pieces_before <= piece_bound
        for state, (meta_sent, pieces_sent) in zip(members, sent_before):
            strategy = state.strategy
            if not strategy.serves:
                assert state.stats.metadata_sent == meta_sent, state.node
            if not (strategy.serves and strategy.serves_pieces):
                assert state.stats.pieces_sent == pieces_sent, state.node

    with mock.patch.object(MobileBitTorrent, "handle_contact", checked_contact):
        result = checked_run(trace, config, runs=2)
    assert 0.0 <= result.metadata_delivery_ratio <= 1.0
    assert 0.0 <= result.file_delivery_ratio <= 1.0
    # A completed file also delivers its metadata.
    assert result.file_delivery_ratio <= result.metadata_delivery_ratio
    counters = result.counters
    assert contacts_checked == 2 * counters["contacts_processed"]
    if config.use_duration_budgets:
        # The two sanitizer runs are bitwise equal, so each spent half.
        assert 2 * counters["metadata_transmissions"] <= bound_totals[0]
        assert 2 * counters["piece_transmissions"] <= bound_totals[1]
    else:
        # Every clique gets one budget per phase; faults only shrink it.
        cliques = counters["cliques_processed"]
        assert counters["metadata_transmissions"] <= cliques * config.metadata_per_contact
        assert counters["piece_transmissions"] <= cliques * config.files_per_contact
    return result


def test_random_configs_draw_every_knob():
    """A new ``SimulationConfig`` field must be drawn or listed in NOT_DRAWN."""
    knobs = {f.name for f in fields(SimulationConfig)}
    drawn = set(_random_kwargs(random.Random(0)))
    assert not drawn & set(NOT_DRAWN)
    assert set(NOT_DRAWN) <= knobs
    assert drawn == knobs - set(NOT_DRAWN)


class TestRandomRuns:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_traces_and_configs(self, seed):
        rng = random.Random(seed)
        trace = _random_trace(rng)
        _check(trace, _random_config(rng))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        name=st.sampled_from(ADVERSARIAL),
        policy=st.sampled_from(("plain", "reputation")),
    )
    def test_every_strategy_under_each_credit_policy(self, seed, name, policy):
        rng = random.Random(seed)
        trace = _random_trace(rng)
        config = replace(
            _random_config(rng),
            adversaries=AdversaryPlan(fraction=0.5, mix=((name, 1.0),), seed=seed % 7),
            credit_policy=policy,
            tit_for_tat=True,
        )
        _check(trace, config)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        mode=st.sampled_from(list(SchedulingMode)),
        policy=st.sampled_from(("plain", "reputation")),
        budget=st.sampled_from((1, 3, 8)),
    )
    def test_mode_policy_budget_grid(self, seed, mode, policy, budget):
        rng = random.Random(seed)
        trace = _random_trace(rng)
        config = replace(
            _random_config(rng),
            scheduling=mode,
            credit_policy=policy,
            metadata_per_contact=budget,
            files_per_contact=budget,
        )
        _check(trace, config)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        name=st.sampled_from(ADVERSARIAL),
        mode=st.sampled_from(list(SchedulingMode)),
    )
    def test_adversaries_under_both_modes(self, seed, name, mode):
        rng = random.Random(seed)
        trace = _random_trace(rng)
        config = replace(
            _random_config(rng),
            scheduling=mode,
            adversaries=AdversaryPlan(fraction=0.5, mix=((name, 1.0),), seed=seed % 5),
            tit_for_tat=True,
            credit_policy="reputation",
        )
        _check(trace, config)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_files_over_64_pieces(self, seed):
        rng = random.Random(seed)
        trace = _random_trace(rng)
        _check(trace, replace(_random_config(rng), pieces_per_file=70))


class TestPresets:
    def test_dieselnet_fast_preset(self):
        from repro.experiments.workloads import dieselnet_base_config, dieselnet_trace

        result = _check(dieselnet_trace("fast"), dieselnet_base_config())
        assert result.counters["metadata_transmissions"] > 0
        assert result.counters["piece_transmissions"] > 0


class TestContactBatching:
    """Same-instant contacts dispatch as one batch event per instant."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_same_instant_bursts(self, seed):
        rng = random.Random(seed)
        _check(_batched_trace(seed), _random_config(rng))

    def test_batches_fewer_than_contacts(self):
        trace = _batched_trace(3)
        distinct = len({c.start for c in trace})
        config = SimulationConfig(files_per_day=6, num_days=2, seed=0)
        counters = _check(trace, config).counters
        assert counters["contact_batches"] == counters["events_contact"]
        # Bursts collapse: one event per distinct instant, not per contact.
        assert counters["events_contact"] <= distinct
        assert counters["contacts_processed"] >= counters["events_contact"]


def test_simulation_never_imports_numpy():
    """The simulator is pure Python: a run must not pull numpy in."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(src_dir)!r}, {str(tests_dir)!r}]\n"
        "import repro.sim.runner as runner\n"
        "from conftest import tiny_trace\n"
        "runner.Simulation(tiny_trace(), runner.SimulationConfig(num_days=2)).run()\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
