"""Shared primitive types and time constants used across the library.

The whole code base measures time in **seconds** as ``float``. A day is
86 400 seconds; the paper generates new files every day at 12:00 (noon),
which is ``NOON_OFFSET`` seconds into the day.
"""

from __future__ import annotations

from typing import NewType

#: Identifier of a node (bus, student, phone) participating in the DTN.
NodeId = NewType("NodeId", int)

#: Uniform resource identifier of a file, e.g. ``"dtn://fox/ep-0042"``.
Uri = NewType("Uri", str)

#: Seconds in one minute / hour / day.
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 86400.0

#: Offset of the daily file-generation instant (12:00 noon, paper VI-A).
NOON_OFFSET: float = 12 * HOUR


def noon_of_day(day: int) -> float:
    """Return the absolute time of 12:00 noon on zero-based day ``day``."""
    return day * DAY + NOON_OFFSET
