"""Runtime sanitizer: hash-seed pinning, RNG guard, fingerprints."""

from __future__ import annotations

import random

import pytest

from repro.detlint.hashseed import (
    DEFAULT_HASH_SEED,
    HASH_SEED_ENV,
    UNPINNED,
    ensure_hash_seed,
    hash_seed_value,
)
from repro.detlint.sanitizer import (
    DETCHECK_ENV,
    DeterminismError,
    GlobalRngGuard,
    assert_hash_seed_pinned,
    checked_run,
    detcheck_enabled,
    result_fingerprint,
    verify_recorded_hash_seed,
)
from repro.exec import RunSpec, TraceSpec, execute, run_many
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace


@pytest.fixture
def tiny_trace():
    return generate_dieselnet_trace(DieselNetConfig(num_buses=6, num_days=1), seed=0)


@pytest.fixture
def tiny_config():
    return SimulationConfig(files_per_day=3, num_days=1, seed=0)


class TestHashSeed:
    def test_export_when_unset(self, monkeypatch):
        monkeypatch.delenv(HASH_SEED_ENV, raising=False)
        assert ensure_hash_seed() == DEFAULT_HASH_SEED
        import os

        assert os.environ[HASH_SEED_ENV] == DEFAULT_HASH_SEED

    def test_existing_pin_is_kept(self, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "7")
        assert ensure_hash_seed() == "7"
        assert hash_seed_value() == 7

    def test_random_is_unpinned(self, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "random")
        assert hash_seed_value() == UNPINNED
        with pytest.raises(DeterminismError, match="hash"):
            assert_hash_seed_pinned()

    def test_assert_pins_when_unset(self, monkeypatch):
        monkeypatch.delenv(HASH_SEED_ENV, raising=False)
        assert assert_hash_seed_pinned() == 0


class TestDetcheckEnabled:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy(self, value):
        assert detcheck_enabled({DETCHECK_ENV: value})

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
    def test_falsy(self, value):
        assert not detcheck_enabled({DETCHECK_ENV: value})

    def test_unset(self):
        assert not detcheck_enabled({})


class TestFingerprint:
    def test_identical_runs_identical_fingerprints(self, tiny_trace, tiny_config):
        a = Simulation(tiny_trace, tiny_config).run()
        b = Simulation(tiny_trace, tiny_config).run()
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_seed_changes_fingerprint(self, tiny_trace, tiny_config):
        a = Simulation(tiny_trace, tiny_config).run()
        b = Simulation(tiny_trace, SimulationConfig(files_per_day=3, num_days=1, seed=1)).run()
        assert result_fingerprint(a) != result_fingerprint(b)

    def test_wall_clock_timers_are_ignored(self, tiny_trace, tiny_config):
        result = Simulation(tiny_trace, tiny_config).run()
        reference = result_fingerprint(result)
        result.extra["perf.time_us.hellos"] = 123456.0
        assert result_fingerprint(result) == reference
        result.extra["events"] += 1
        assert result_fingerprint(result) != reference


class TestGlobalRngGuard:
    def test_clean_simulation_passes(self, tiny_trace, tiny_config, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "0")
        result = Simulation(tiny_trace, tiny_config).run(event_observer=GlobalRngGuard())
        assert result.extra["events"] > 0

    def test_global_draw_is_caught(self):
        guard = GlobalRngGuard()
        guard(0.0, 0)  # idle stream: fine
        random.random()
        with pytest.raises(DeterminismError, match="event #3"):
            guard(12.5, 3)

    def test_private_rng_is_invisible(self):
        guard = GlobalRngGuard()
        random.Random(7).random()
        guard(1.0, 1)


class TestRecordedHashSeed:
    def test_counter_matches_environment(self, tiny_trace, tiny_config, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "0")
        result = Simulation(tiny_trace, tiny_config).run()
        assert result.counters["detcheck.pythonhashseed"] == 0
        verify_recorded_hash_seed(result)

    def test_mismatch_raises(self, tiny_trace, tiny_config, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "0")
        result = Simulation(tiny_trace, tiny_config).run()
        monkeypatch.setenv(HASH_SEED_ENV, "5")
        with pytest.raises(DeterminismError, match="environment"):
            verify_recorded_hash_seed(result)


class TestCheckedRun:
    def test_returns_plain_result(self, tiny_trace, tiny_config, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "0")
        checked = checked_run(tiny_trace, tiny_config)
        plain = Simulation(tiny_trace, tiny_config).run()
        assert result_fingerprint(checked) == result_fingerprint(plain)

    def test_rejects_zero_runs(self, tiny_trace, tiny_config):
        with pytest.raises(ValueError):
            checked_run(tiny_trace, tiny_config, runs=0)

    def test_maybe_checked_run_env_gate(self, tiny_config, monkeypatch):
        # kernel.execute takes the sanitized path only under REPRO_DETCHECK.
        from repro.detlint import sanitizer

        calls = []

        def recording_checked_run(trace, config):
            calls.append(config)
            return checked_run(trace, config)

        monkeypatch.setattr(sanitizer, "checked_run", recording_checked_run)
        monkeypatch.setenv(HASH_SEED_ENV, "0")
        spec = RunSpec(
            trace=TraceSpec.of(
                generate_dieselnet_trace, DieselNetConfig(num_buses=6, num_days=1), 0
            ),
            config=tiny_config,
        )
        monkeypatch.delenv(DETCHECK_ENV, raising=False)
        plain = execute(spec).result
        assert calls == []
        monkeypatch.setenv(DETCHECK_ENV, "1")
        sanitized = execute(spec).result
        assert calls == [tiny_config]
        assert result_fingerprint(plain) == result_fingerprint(sanitized)


class TestKernelIntegration:
    def spec(self, seed=0):
        return RunSpec(
            trace=TraceSpec.of(
                generate_dieselnet_trace, DieselNetConfig(num_buses=6, num_days=1), 0
            ),
            config=SimulationConfig(files_per_day=3, num_days=1, seed=seed),
        )

    def test_execute_exports_hash_seed(self, monkeypatch):
        import os

        monkeypatch.delenv(HASH_SEED_ENV, raising=False)
        result = execute(self.spec())
        assert os.environ[HASH_SEED_ENV] == DEFAULT_HASH_SEED
        assert result.result.counters["detcheck.pythonhashseed"] == 0

    def test_run_many_exports_hash_seed(self, monkeypatch):
        import os

        monkeypatch.delenv(HASH_SEED_ENV, raising=False)
        results = run_many([self.spec(0), self.spec(1)], jobs=1)
        assert os.environ[HASH_SEED_ENV] == DEFAULT_HASH_SEED
        for run in results:
            assert run.result.counters["detcheck.pythonhashseed"] == 0

    def test_execute_honours_detcheck_env(self, monkeypatch):
        monkeypatch.setenv(HASH_SEED_ENV, "0")
        monkeypatch.setenv(DETCHECK_ENV, "1")
        sanitized = execute(self.spec())
        monkeypatch.delenv(DETCHECK_ENV)
        plain = execute(self.spec())
        assert result_fingerprint(sanitized.result) == result_fingerprint(plain.result)
