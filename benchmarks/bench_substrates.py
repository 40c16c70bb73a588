"""Micro-benchmarks of the substrates (engine, traces, routing).

These are classic pytest-benchmark timings — they guard against
performance regressions in the hot paths the figure sweeps rely on.
"""

from __future__ import annotations


from repro.routing.base import Message, simulate_routing
from repro.routing.epidemic import EpidemicRouter
from repro.sim.engine import Simulator
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.nus import NUSConfig, generate_nus_trace


def test_engine_throughput(benchmark):
    """Schedule-and-run 10k events."""

    def run() -> int:
        sim = Simulator()
        for t in range(10_000):
            sim.schedule(float(t), lambda: None)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def test_dieselnet_generation(benchmark):
    trace = benchmark(
        generate_dieselnet_trace, DieselNetConfig(num_buses=30, num_days=10), 0
    )
    assert len(trace) > 0


def test_nus_generation(benchmark):
    trace = benchmark(
        generate_nus_trace, NUSConfig(num_students=80, num_courses=16, num_days=10), 0
    )
    assert len(trace) > 0


def test_epidemic_routing_run(benchmark):
    trace = generate_dieselnet_trace(DieselNetConfig(num_buses=20, num_days=5), 1)
    nodes = trace.nodes
    messages = [
        Message(i, nodes[i % 10], nodes[-1 - i % 10], created_at=0.0, ttl=5 * 86400.0)
        for i in range(30)
    ]
    result = benchmark.pedantic(
        lambda: simulate_routing(trace, messages, EpidemicRouter()),
        rounds=1,
        iterations=1,
    )
    assert result.delivery_ratio > 0.5
