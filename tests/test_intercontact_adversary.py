"""Tests for inter-contact analysis, the fake-file adversary, piece
buffers and duration-derived budgets."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.analysis.intercontact import (
    empirical_ccdf,
    fit_exponential,
    intercontact_samples,
    summarize,
)
from repro.catalog.adversary import CLAIMED_POPULARITY, FakeFileFactory
from repro.catalog.files import piece_payload
from repro.catalog.generator import CatalogConfig, CatalogGenerator
from repro.catalog.metadata import verify_metadata
from repro.core.strategies import AdversaryPlan
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import Contact, ContactTrace
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.types import NodeId, noon_of_day

from conftest import pair_contact


class TestInterContact:
    def test_samples_measure_gaps(self):
        trace = ContactTrace(
            [
                pair_contact(0.0, 10.0, 0, 1),
                pair_contact(110.0, 120.0, 0, 1),
                pair_contact(320.0, 330.0, 0, 1),
            ]
        )
        assert intercontact_samples(trace) == [100.0, 200.0]

    def test_overlapping_contacts_contribute_zero(self):
        trace = ContactTrace(
            [pair_contact(0.0, 100.0, 0, 1), pair_contact(50.0, 60.0, 0, 1)]
        )
        assert intercontact_samples(trace) == [0.0]

    def test_pairs_tracked_independently(self):
        trace = ContactTrace(
            [
                pair_contact(0.0, 10.0, 0, 1),
                pair_contact(20.0, 30.0, 2, 3),
                pair_contact(40.0, 50.0, 0, 1),
            ]
        )
        assert intercontact_samples(trace) == [30.0]

    def test_summarize(self):
        stats = summarize([10.0, 20.0, 30.0, 40.0])
        assert stats.count == 4
        assert stats.mean == 25.0
        assert stats.median == 25.0
        assert stats.cv > 0

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ccdf_monotone_decreasing(self):
        rng = random.Random(0)
        samples = [rng.expovariate(1 / 100.0) for __ in range(2000)]
        ccdf = empirical_ccdf(samples)
        values = [p for __, p in ccdf]
        assert values == sorted(values, reverse=True)
        assert 0.0 <= values[-1] <= values[0] <= 1.0

    def test_exponential_fit_recovers_rate(self):
        rng = random.Random(1)
        rate = 1 / 3600.0
        samples = [rng.expovariate(rate) for __ in range(5000)]
        fit = fit_exponential(samples)
        assert fit.rate == pytest.approx(rate, rel=0.1)
        assert fit.ccdf_error < 0.05  # exponential data fits well

    def test_dieselnet_gaps_roughly_exponential(self):
        # The generator draws meetings from Poisson processes, so the
        # aggregate gaps should fit an exponential reasonably.
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=16, num_days=10), seed=0
        )
        fit = fit_exponential(intercontact_samples(trace))
        assert fit.ccdf_error < 0.12


class TestFakeFileFactory:
    def _batch(self):
        generator = CatalogGenerator(
            CatalogConfig(files_per_day=10), [NodeId(0)], seed=0
        )
        return generator.generate_day(0, noon_of_day(0)), generator.registry

    def test_fakes_mirror_names_but_not_uris(self):
        batch, __ = self._batch()
        fakes = FakeFileFactory(seed=0).make_fakes(batch, 5)
        real_names = {record.name for record in batch.metadata}
        real_uris = {record.uri for record in batch.metadata}
        assert len(fakes.metadata) == 5
        for fake in fakes.metadata:
            assert fake.name in real_names
            assert fake.uri not in real_uris
        assert [fake.uri for fake in fakes.metadata] == [
            f"dtn://pirate/p{serial:06d}" for serial in range(5)
        ]

    def test_fakes_fail_signature_verification(self):
        batch, registry = self._batch()
        for fake in FakeFileFactory(seed=0).make_fakes(batch, 5).metadata:
            assert not verify_metadata(fake, registry)

    def test_fake_checksums_self_consistent(self):
        batch, __ = self._batch()
        fake = FakeFileFactory(seed=0).make_fakes(batch, 1).metadata[0]
        payload = piece_payload(fake.uri, 0)
        from repro.catalog.files import piece_checksum

        assert piece_checksum(payload) == fake.checksums[0]

    def test_count_capped_by_batch(self):
        batch, __ = self._batch()
        fakes = FakeFileFactory(seed=0).make_fakes(batch, 99)
        assert len(fakes.metadata) == 10

    def test_claimed_popularity_inflated(self):
        batch, __ = self._batch()
        for fake in FakeFileFactory(seed=0).make_fakes(batch, 3).metadata:
            assert fake.popularity == CLAIMED_POPULARITY == 0.9

    def test_validation(self):
        batch, __ = self._batch()
        with pytest.raises(ValueError):
            FakeFileFactory().make_fakes(batch, -1)


def pirates(fraction: float, fakes_per_day: int) -> AdversaryPlan:
    return AdversaryPlan(
        fraction=fraction, mix=(("polluter", 1.0),), polluter_fakes_per_day=fakes_per_day
    )


class TestPollutionSimulation:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_dieselnet_trace(
            DieselNetConfig(num_buses=14, num_days=5), seed=3
        )

    def test_verification_blocks_fakes(self, trace):
        config = SimulationConfig(seed=3, files_per_day=20, adversaries=pirates(0.2, 8))
        result = Simulation(trace, config).run()
        assert result.extra["metadata_rejected_auth"] > 0

    def test_pollution_hurts_without_verification(self, trace):
        base = SimulationConfig(seed=3, files_per_day=20, adversaries=pirates(0.2, 10))
        defended = Simulation(trace, base).run()
        undefended = Simulation(
            trace, replace(base, verify_signatures=False)
        ).run()
        assert undefended.file_delivery_ratio <= defended.file_delivery_ratio
        assert undefended.extra["metadata_rejected_auth"] == 0

    def test_no_fakes_without_malicious_nodes(self, trace):
        # No polluters, or polluters seeded with nothing.
        for plan in (pirates(0.0, 10), pirates(0.2, 0)):
            config = SimulationConfig(seed=3, files_per_day=20, adversaries=plan)
            result = Simulation(trace, config).run()
            assert result.extra["metadata_rejected_auth"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            pirates(1.5, 5)
        with pytest.raises(ValueError):
            pirates(0.2, -1)


class TestDurationBudgets:
    def test_duration_budget_config_flows_through(self):
        config = SimulationConfig(use_duration_budgets=True,
                                  bandwidth_bytes_per_s=50_000.0)
        protocol = config.protocol_config()
        assert protocol.duration_budgets is True
        assert protocol.bandwidth_bytes_per_s == 50_000.0

    def test_short_contacts_carry_fewer_pieces(self):
        # With duration budgets, a long classroom contact moves many
        # pieces while a short bus contact moves few.
        from repro.core.mbt import MobileBitTorrent, ProtocolConfig
        from repro.traces.base import Contact

        config = ProtocolConfig(duration_budgets=True,
                                bandwidth_bytes_per_s=100_000.0)
        engine = MobileBitTorrent({}, None, None, None, config)  # type: ignore[arg-type]
        short = Contact(0.0, 30.0, frozenset({NodeId(0), NodeId(1)}))
        long = Contact(0.0, 3600.0, frozenset({NodeId(0), NodeId(1)}))
        short_budget = engine._contact_budget(short)
        long_budget = engine._contact_budget(long)
        assert long_budget.pieces > short_budget.pieces
        assert long_budget.metadata > short_budget.metadata
        # 30 s at 100 kB/s leaves 2.4 MB·0.8 ≈ 9 pieces; the discovery
        # share still fits hundreds of 2 kB records (§V's asymmetry).
        assert short_budget.metadata > short_budget.pieces

    def test_runs_end_to_end(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=12, num_days=4), seed=1
        )
        result = Simulation(
            trace,
            SimulationConfig(seed=1, files_per_day=20, use_duration_budgets=True),
        ).run()
        assert 0.0 <= result.file_delivery_ratio <= 1.0
