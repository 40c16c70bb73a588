"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0
        assert queue.peek_time() is None

    def test_pop_returns_earliest(self):
        sim = Simulator()
        times = []
        for t in (5.0, 1.0, 3.0):
            sim.schedule(t, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 3.0, 5.0]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop_entry()

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        priorities = []
        for priority in (2, 0, 1):
            sim.schedule(1.0, lambda p=priority: priorities.append(p), priority=priority)
        sim.run()
        assert priorities == [0, 1, 2]

    def test_fifo_among_equal_time_and_priority(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("first"))
        sim.schedule(1.0, lambda: seen.append("second"))
        sim.run()
        assert seen == ["first", "second"]

    def test_peek_time_does_not_pop(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0
        assert len(queue) == 1


class TestSimulator:
    def test_runs_events_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule(5.0, lambda: None)

    def test_events_can_schedule_followups(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(sim.now + 1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_run_until_includes_events_at_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=5.0)
        assert seen == [5]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_priority_orders_simultaneous_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("low"), priority=5)
        sim.schedule(1.0, lambda: seen.append("high"), priority=0)
        sim.run()
        assert seen == ["high", "low"]

