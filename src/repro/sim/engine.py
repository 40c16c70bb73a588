"""A small, deterministic discrete-event simulation engine.

The engine is intentionally minimal: a priority queue of scheduled
callbacks ordered by ``(time, priority, sequence)``.
Events scheduled for the same instant are executed in the order defined
by their ``priority`` and, for equal priorities, their insertion order.
This makes every simulation run fully deterministic for a given seed,
which the test-suite and the benchmark harness rely on.

Example
-------
>>> sim = Simulator()
>>> seen = []
>>> sim.schedule(2.0, lambda: seen.append("b"))
>>> sim.schedule(1.0, lambda: seen.append("a"))
>>> sim.run()
>>> seen
['a', 'b']
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class EventQueue:
    """A stable priority queue of scheduled callbacks.

    Heap entries are plain ``(time, priority, sequence, action)``
    tuples. The unique ``sequence`` keeps FIFO order among equal
    ``(time, priority)`` entries and guarantees tuple comparison never
    reaches the (incomparable) action.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, action: Callable[[], None], priority: int = 0) -> None:
        """Insert an event."""
        heapq.heappush(self._heap, (time, priority, next(self._counter), action))

    def pop_entry(self) -> tuple[float, int, int, Callable[[], None]]:
        """Remove and return the earliest ``(time, priority, sequence, action)``.

        Raises
        ------
        IndexError
            If the queue is empty.
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

    def schedule(self, time: float, action: Callable[[], None], priority: int = 0) -> None:
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
        self._queue.push(time, action, priority)

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
