"""Tests for the shared execution kernel (:mod:`repro.exec`).

Covers the picklable spec types, parallel-vs-serial equivalence of
:func:`run_many` (also under fault injection), its error handling for
failing simulations and crashed workers, the execution-mode decision,
independence from the module-level RNG, the per-process trace memo, and
the instrumentation counters aggregated into ``SimulationResult``.

The builders handed to :meth:`TraceSpec.of` are module-level on purpose:
worker processes re-import them by dotted path.
"""

from __future__ import annotations

import functools
import os
import pickle
import random
from concurrent.futures import BrokenExecutor
from dataclasses import replace

import pytest

from repro.catalog.files import IntegrityError, piece_payload
from repro.exec import (
    RunError,
    RunResult,
    RunSpec,
    TraceSpec,
    as_trace_spec,
    execute,
    kernel,
    resolve_callable,
    resolve_execution_mode,
    run_many,
)
from repro.experiments.sweep import cached_trace_factory, run_sweep, sweep_specs
from repro.faults import FaultPlan
from repro.sim.metrics import COUNTER_KEYS, PERF_COUNTER_PREFIX, format_counters
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import ContactTrace
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace

from conftest import make_metadata, make_node, pair_contact


def tiny_dieselnet(seed: int = 0) -> ContactTrace:
    """A few-bus, few-day DieselNet trace — big enough to move data."""
    return generate_dieselnet_trace(DieselNetConfig(num_buses=8, num_days=3), seed)


def micro_trace(seed: int) -> ContactTrace:
    contacts = []
    for day in range(3):
        base = day * 86400.0
        contacts.append(pair_contact(base + 50_000.0, base + 50_060.0, 0, 1))
        contacts.append(pair_contact(base + 60_000.0, base + 60_060.0, 1, 2))
    return ContactTrace(contacts, name=f"micro{seed}")


def crash_always_builder(seed: int = 0) -> ContactTrace:
    """Kill the hosting process unconditionally."""
    os._exit(1)


def failing_builder(seed: int = 0) -> ContactTrace:
    raise RuntimeError("deterministic builder failure")


def _tiny_config(seed: int = 0) -> SimulationConfig:
    return SimulationConfig(files_per_day=5, num_days=3, seed=seed)


def micro_spec(seed: int = 0) -> RunSpec:
    return RunSpec(trace=TraceSpec.of(micro_trace, seed), config=_tiny_config(seed))


def _dicts(runs) -> list:
    return [run.result.to_dict() for run in runs]


class TestResolveCallable:
    def test_module_level_function_resolves(self):
        path = resolve_callable(generate_dieselnet_trace)
        assert path == "repro.traces.dieselnet:generate_dieselnet_trace"

    def test_lambda_does_not_resolve(self):
        assert resolve_callable(lambda seed: None) is None

    def test_closure_does_not_resolve(self):
        def local_builder(seed):
            return None

        assert resolve_callable(local_builder) is None


class TestTraceSpec:
    def test_exactly_one_form_required(self):
        with pytest.raises(ValueError):
            TraceSpec()
        with pytest.raises(ValueError):
            TraceSpec(builder="x:y", trace=micro_trace(0))

    def test_of_rejects_closures(self):
        with pytest.raises(ValueError):
            TraceSpec.of(lambda seed: micro_trace(seed), 0)

    def test_builder_spec_builds(self):
        spec = TraceSpec.of(generate_dieselnet_trace, DieselNetConfig(num_buses=6), 3)
        trace = spec.build()
        assert trace.num_nodes == 6
        # Deterministic: a second build is the same trace.
        again = spec.build()
        assert len(again) == len(trace)

    def test_literal_spec_returns_trace(self):
        trace = micro_trace(0)
        spec = TraceSpec.literal(trace)
        assert spec.build() is trace
        assert spec.cache_key is None

    def test_as_trace_spec_coerces(self):
        trace = micro_trace(1)
        assert as_trace_spec(trace).trace is trace
        spec = TraceSpec.literal(trace)
        assert as_trace_spec(spec) is spec
        with pytest.raises(TypeError):
            as_trace_spec(42)

    def test_spec_is_picklable(self):
        spec = TraceSpec.of(generate_dieselnet_trace, DieselNetConfig(num_buses=6), 1)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build().num_nodes == 6


class TestRunSpec:
    def test_seed_override(self):
        spec = RunSpec(
            trace=TraceSpec.literal(micro_trace(0)),
            config=_tiny_config(seed=0),
            seed=7,
        )
        assert spec.resolved_config().seed == 7
        assert spec.config.seed == 0  # original untouched

    def test_tag_round_trip(self):
        tag = RunSpec.make_tag(x=0.3, protocol="mbt", seed=1)
        spec = RunSpec(
            trace=TraceSpec.literal(micro_trace(0)), config=_tiny_config(), tag=tag
        )
        assert spec.labels() == {"x": 0.3, "protocol": "mbt", "seed": 1}
        result = execute(spec)
        assert result.spec.labels() == spec.labels()

    def test_spec_is_picklable(self):
        spec = RunSpec(trace=TraceSpec.literal(micro_trace(0)), config=_tiny_config())
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.config == spec.config


class TestExecute:
    def test_pure_and_deterministic(self):
        spec = RunSpec(trace=TraceSpec.literal(tiny_dieselnet()), config=_tiny_config())
        a = execute(spec)
        b = execute(spec)
        assert a.result.to_dict() == b.result.to_dict()
        assert a.wall_time > 0

    def test_independent_of_global_rng(self):
        """Satellite: no code path consults the module-level RNG."""
        spec = RunSpec(trace=TraceSpec.literal(tiny_dieselnet()), config=_tiny_config())
        random.seed(12345)
        a = execute(spec)
        random.seed(99999)
        for _ in range(10):
            random.random()
        b = execute(spec)
        assert a.result.to_dict() == b.result.to_dict()

    def test_trace_cache_hit_on_repeat(self):
        spec = TraceSpec.of(generate_dieselnet_trace, DieselNetConfig(num_buses=6), 11)
        run = RunSpec(trace=spec, config=_tiny_config())
        before = kernel._cached_build.cache_info()
        execute(run)
        execute(run)
        after = kernel._cached_build.cache_info()
        assert after.hits >= before.hits + 1

    def test_trace_cache_stays_bounded(self):
        kernel.trace_cache_clear()
        for seed in range(kernel._TRACE_CACHE_LIMIT + 5):
            kernel.build_trace(TraceSpec.of(micro_trace, seed))
        assert kernel._cached_build.cache_info().currsize == kernel._TRACE_CACHE_LIMIT

    def test_unhashable_arguments_build_uncached(self):
        spec = TraceSpec.of(micro_trace, [4])
        assert spec.cache_key is None
        kernel.trace_cache_clear()
        assert kernel.build_trace(spec).name == "micro[4]"
        assert kernel._cached_build.cache_info().currsize == 0


class TestRunMany:
    def _specs(self):
        return sweep_specs(
            x_values=(0.25, 0.75),
            trace_factory=lambda x, seed: TraceSpec.of(
                generate_dieselnet_trace, DieselNetConfig(num_buses=8, num_days=3), seed
            ),
            config_factory=lambda cfg, x, seed: replace(
                cfg, internet_access_fraction=x, seed=seed
            ),
            base_config=SimulationConfig(files_per_day=5, num_days=3),
            seeds=(0, 1),
        )

    def test_grid_shape_and_order(self):
        specs = self._specs()
        assert len(specs) == 2 * 3 * 2  # x * protocol * seed
        assert specs[0].labels()["x"] == 0.25
        assert specs[0].labels()["seed"] == 0
        assert specs[1].labels()["seed"] == 1
        assert specs[-1].labels()["x"] == 0.75

    def test_parallel_equals_serial(self):
        """Four worker processes are bitwise-identical to jobs=1.

        ``mode="processes"`` pins the real pool: on a one-core host
        ``"auto"`` runs inline and the test would compare a run with
        itself instead of checking cross-process determinism.
        """
        specs = self._specs()
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=4, mode="processes")
        assert len(parallel) == len(serial)
        for ser, par in zip(serial, parallel):
            assert par.spec == ser.spec
            assert par.result.to_dict() == ser.result.to_dict()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_many([], jobs=0)

    def test_rejects_bad_on_error(self):
        with pytest.raises(ValueError):
            run_many([], on_error="explode")

    @pytest.mark.parametrize("jobs, mode", [(1, "inline"), (2, "processes")])
    def test_execute_is_looked_up_at_call_time(self, monkeypatch, jobs, mode):
        """Rebinding ``kernel.execute`` reaches inline runs and workers.

        Profilers wrap every run this way; pool workers are forked after
        the rebinding and resolve ``execute`` by name, so they run the
        wrapper too.
        """
        original = kernel.execute

        @functools.wraps(original)
        def tagging(spec):
            run = original(spec)
            return replace(run, wall_time=-1.0)

        monkeypatch.setattr(kernel, "execute", tagging)
        runs = run_many([micro_spec(0), micro_spec(1)], jobs=jobs, mode=mode)
        assert [run.wall_time for run in runs] == [-1.0, -1.0]

    def test_sweep_parallel_equals_serial(self):
        kwargs = dict(
            name="parallel-check",
            x_label="access",
            x_values=(0.25, 0.75),
            trace_factory=cached_trace_factory(micro_trace),
            config_factory=lambda cfg, x, seed: replace(
                cfg, internet_access_fraction=x, seed=seed
            ),
            base_config=SimulationConfig(files_per_day=5, num_days=3),
            seeds=(0,),
        )
        assert run_sweep(jobs=1, **kwargs) == run_sweep(jobs=2, **kwargs)


class TestCachedTraceFactory:
    def test_module_level_builder_becomes_spec(self):
        factory = cached_trace_factory(tiny_dieselnet)
        spec = factory(0.5, 3)
        assert isinstance(spec, TraceSpec)
        assert spec.builder is not None
        assert spec.args == (3,)

    def test_closure_builder_built_once_per_seed(self):
        calls = []

        def build(seed: int) -> ContactTrace:
            calls.append(seed)
            return micro_trace(seed)

        factory = cached_trace_factory(build)
        a = factory(0.1, 0)
        b = factory(0.9, 0)
        factory(0.9, 1)
        assert calls == [0, 1]
        assert a.trace is b.trace  # literal spec shared across x values


class TestCounters:
    def _result(self, **config_overrides):
        config = replace(_tiny_config(), **config_overrides)
        return Simulation(tiny_dieselnet(), config).run()

    def test_counters_present_and_integral(self):
        counters = self._result().counters
        for key in (
            "events",
            "events_contact",
            "contacts_processed",
            "hello_exchanges",
            "metadata_transmissions",
            "internet_syncs",
        ):
            assert key in counters, key
            assert isinstance(counters[key], int)
        named = {k for k in counters if not k.startswith(PERF_COUNTER_PREFIX)}
        assert named <= set(COUNTER_KEYS)
        # perf.* keys are the open-ended performance namespace.
        assert any(k.startswith(PERF_COUNTER_PREFIX) for k in counters)

    def test_counters_internally_consistent(self):
        counters = self._result().counters
        assert counters["events"] >= counters["events_contact"]
        # Same-instant contacts are dispatched as one batch event, so
        # the contact count bounds the batch count from above and each
        # scheduled contact event is exactly one batch.
        assert counters["contacts_processed"] >= counters["events_contact"]
        assert counters["contact_batches"] == counters["events_contact"]
        assert counters["hello_exchanges"] >= counters["contacts_processed"]
        assert counters["metadata_transmissions"] > 0
        assert counters["internet_syncs"] > 0

    def test_counters_deterministic(self):
        assert self._result().counters == self._result().counters

    def test_format_counters_renders_every_key(self):
        counters = self._result().counters
        text = format_counters(counters)
        for key in counters:
            assert key in text

    def test_metadata_eviction_counter(self, registry):
        node = make_node(registry, metadata_capacity=2)
        for i in range(5):
            record = make_metadata(registry, uri=f"dtn://fox/f{i:06d}")
            node.accept_metadata(record, now=float(i))
        assert node.stats.metadata_evictions >= 1
        assert node.stats.as_dict()["metadata_evictions"] >= 1

    def test_checksum_rejection_counter(self, registry):
        node = make_node(registry)
        record = make_metadata(registry)
        node.accept_metadata(record, 0.0)
        with pytest.raises(IntegrityError):
            node.accept_piece(record.uri, 0, b"corrupt!", record.checksums[0])
        assert node.stats.checksum_rejections == 1
        # A good piece still goes through afterwards.
        payload = piece_payload(record.uri, 0)
        assert node.accept_piece(record.uri, 0, payload, record.checksums[0]) is True


class TestExecutionMode:
    def test_jobs_one_is_inline(self):
        assert resolve_execution_mode(1) == ("inline", 1)

    def test_explicit_processes_keeps_the_pool(self):
        assert resolve_execution_mode(4, "processes") == ("processes", 4)

    def test_explicit_inline_collapses_jobs(self):
        assert resolve_execution_mode(8, "inline") == ("inline", 1)

    def test_auto_follows_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_execution_mode(4) == ("inline", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_execution_mode(4) == ("processes", 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            resolve_execution_mode(0)
        with pytest.raises(ValueError):
            resolve_execution_mode(2, "threads")


class TestDeterministicErrors:
    def _specs(self):
        return [
            micro_spec(0),
            RunSpec(trace=TraceSpec.of(failing_builder, 0), config=_tiny_config()),
            micro_spec(1),
        ]

    def test_serial_fail_fast_raises(self):
        with pytest.raises(RuntimeError, match="deterministic builder failure"):
            run_many(self._specs(), jobs=1)

    def test_serial_collect_fills_error_slot(self):
        results = run_many(self._specs(), jobs=1, on_error="collect")
        assert isinstance(results[0], RunResult)
        assert isinstance(results[1], RunError)
        assert isinstance(results[2], RunResult)
        assert "deterministic builder failure" in results[1].error

    def test_parallel_collect_fills_error_slot(self):
        results = run_many(self._specs(), jobs=2, on_error="collect", mode="processes")
        assert isinstance(results[0], RunResult)
        assert isinstance(results[1], RunError)
        assert isinstance(results[2], RunResult)
        assert "deterministic builder failure" in results[1].error

    def test_parallel_fail_fast_raises_original(self):
        with pytest.raises(RuntimeError, match="deterministic builder failure"):
            run_many(self._specs(), jobs=2, mode="processes")

    def test_run_error_labels(self):
        spec = replace(
            RunSpec(trace=TraceSpec.of(failing_builder, 0), config=_tiny_config()),
            tag=RunSpec.make_tag(protocol="mbt", x=0.3),
        )
        [error] = run_many([spec], jobs=1, on_error="collect")
        assert error.labels() == {"protocol": "mbt", "x": 0.3}


class TestWorkerCrashes:
    def _specs(self):
        return [RunSpec(trace=TraceSpec.of(crash_always_builder, 0), config=_tiny_config())]

    def test_crashed_worker_collect(self):
        [error] = run_many(self._specs(), jobs=2, on_error="collect", mode="processes")
        assert isinstance(error, RunError)
        assert "BrokenProcessPool" in error.error

    def test_crashed_worker_fail_fast(self):
        with pytest.raises(BrokenExecutor):
            run_many(self._specs(), jobs=2, mode="processes")


class TestFaultedParallelEquality:
    def test_jobs_do_not_change_fault_injected_results(self):
        plan = FaultPlan(
            loss_rate=0.3,
            corruption_rate=0.2,
            contact_truncation_rate=0.3,
            churn_rate=0.2,
        )
        specs = [
            RunSpec(
                trace=TraceSpec.of(
                    generate_dieselnet_trace,
                    DieselNetConfig(num_buses=6, num_days=2),
                    seed,
                ),
                config=replace(_tiny_config(seed), faults=plan),
            )
            for seed in range(4)
        ]
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=2, mode="processes")
        assert _dicts(parallel) == _dicts(serial)
        for run in serial:
            assert run.result.extra.get("faults.metadata_losses", 0) > 0
