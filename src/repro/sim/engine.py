"""A small, deterministic discrete-event simulation engine.

The engine is intentionally minimal: a priority queue of
:class:`Event` objects ordered by ``(time, priority, sequence)``.
Events scheduled for the same instant are executed in the order defined
by their ``priority`` and, for equal priorities, their insertion order.
This makes every simulation run fully deterministic for a given seed,
which the test-suite and the benchmark harness rely on.

Example
-------
>>> sim = Simulator()
>>> seen = []
>>> _ = sim.schedule(2.0, lambda: seen.append("b"))
>>> _ = sim.schedule(1.0, lambda: seen.append("a"))
>>> sim.run()
>>> seen
['a', 'b']
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


@dataclass(frozen=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-breaker for simultaneous events; lower fires first.
    sequence:
        Insertion counter; guarantees FIFO order among equal
        ``(time, priority)`` events.
    action:
        Zero-argument callable executed when the event fires.
    """

    time: float
    priority: int
    sequence: int
    action: Callable[[], None] = field(compare=False)


class EventQueue:
    """A stable priority queue of scheduled callbacks.

    Heap entries are plain ``(time, priority, sequence, action)``
    tuples — the sort key is stored once, not duplicated into a frozen
    :class:`Event`'s compare fields, and no dataclass is allocated per
    push. The unique ``sequence`` guarantees tuple comparison never
    reaches the (incomparable) action. :class:`Event` objects are
    materialized only where the public API returns them (:meth:`push`'s
    handle, :meth:`pop`).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Insert an event and return it."""
        sequence = next(self._counter)
        heapq.heappush(self._heap, (time, priority, sequence, action))
        return Event(time=time, priority=priority, sequence=sequence, action=action)

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        time, priority, sequence, action = heapq.heappop(self._heap)
        return Event(time=time, priority=priority, sequence=sequence, action=action)

    def pop_entry(self) -> tuple[float, int, int, Callable[[], None]]:
        """Remove and return the earliest raw heap entry (no Event).

        The engine's inner loop uses this to skip the per-step Event
        allocation; external callers should prefer :meth:`pop`.
        """
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the earliest event, or ``None``."""
        if not self._heap:
            return None
        return self._heap[0][0]


class Simulator:
    """Deterministic discrete-event simulator.

    The simulator owns a clock (``now``) and an :class:`EventQueue`.
    Actions scheduled while the simulation runs are allowed (events may
    schedule follow-up events) as long as they are not in the past.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue = EventQueue()
        self._events_executed = 0
        self._events_by_priority: dict[int, int] = {}
        #: Optional hook called as ``observer(now, events_executed)``
        #: after every executed event. Installed by the detcheck
        #: sanitizer to assert invariants (e.g. the global RNG stayed
        #: untouched) at event granularity; ``None`` costs one
        #: attribute load per event.
        self.event_observer: Optional[Callable[[float, int], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_executed

    @property
    def events_by_priority(self) -> dict[int, int]:
        """Executed-event counts per priority class (copy).

        Priorities are caller-defined; the runner maps its scheduling
        classes (noon housekeeping, Internet syncs, contacts) onto
        them, so this breakdown shows where simulation time goes.
        """
        return dict(self._events_by_priority)

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue."""
        return len(self._queue)

    def schedule(self, time: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` at absolute ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.3f} before current time t={self._now:.3f}"
            )
        return self._queue.push(time, action, priority)

    def schedule_after(self, delay: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self._now + delay, action, priority)

    def schedule_every(
        self,
        interval: float,
        action: Callable[[], None],
        start: Optional[float] = None,
        until: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` periodically.

        The action fires first at ``start`` (default: ``now + interval``)
        and then every ``interval`` seconds while the fire time is
        strictly below ``until`` (default: forever — bounded only by
        ``run(until=...)``).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        first = self._now + interval if start is None else start

        def fire_and_reschedule(at: float) -> None:
            action()
            nxt = at + interval
            if until is None or nxt < until:
                self._queue.push(nxt, lambda: fire_and_reschedule(nxt), priority)

        if until is None or first < until:
            self.schedule(first, lambda: fire_and_reschedule(first), priority)

    def step(self) -> bool:
        """Execute the next event. Return ``False`` if none remained."""
        if not self._queue:
            return False
        time, priority, __, action = self._queue.pop_entry()
        self._now = time
        action()
        self._events_executed += 1
        self._events_by_priority[priority] = (
            self._events_by_priority.get(priority, 0) + 1
        )
        observer = self.event_observer
        if observer is not None:
            observer(self._now, self._events_executed)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        Events scheduled exactly at ``until`` are executed; the clock
        never advances beyond the last executed event.

        ``max_events`` is a safety valve for long campaigns: when more
        than that many events would execute *within this call*, a
        :class:`SimulationError` is raised instead of looping forever
        (e.g. a buggy action reposting itself at the current instant).
        """
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events!r}")
        executed_before = self._events_executed
        while self._queue:
            next_time = self._queue.peek_time()
            assert next_time is not None
            if until is not None and next_time > until:
                break
            if (
                max_events is not None
                and self._events_executed - executed_before >= max_events
            ):
                raise SimulationError(
                    f"event budget exhausted: {max_events} events executed "
                    f"by t={self._now:.3f} with {len(self._queue)} still pending"
                )
            self.step()
        if until is not None and until > self._now:
            self._now = until

    def drain(self) -> Iterator[Event]:
        """Yield remaining events in fire order without executing them."""
        while self._queue:
            yield self._queue.pop()
