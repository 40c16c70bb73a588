"""DTN contact traces: model, synthetic generators and I/O.

A *contact* is a period of time during which a set of nodes can all
hear each other's broadcasts (a clique). The paper uses two traces:

* the real **UMassDieselNet** bus trace — pair-wise contacts only;
* the synthetic **NUS student** trace — classroom cliques derived from
  campus schedules.

Neither raw trace is redistributable in this offline environment, so
:mod:`repro.traces.dieselnet` and :mod:`repro.traces.nus` provide
generators that synthesize traces with the structural properties the
protocols depend on (see DESIGN.md, "Substitutions").
"""

from repro.traces.base import Contact, ContactTrace, TraceStats
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.io import read_trace, write_trace
from repro.traces.mobility import (
    CommunityConfig,
    RandomWaypointConfig,
    generate_community_trace,
    generate_random_waypoint_trace,
)
from repro.traces.nus import NUSConfig, generate_nus_trace

__all__ = [
    "Contact",
    "ContactTrace",
    "TraceStats",
    "DieselNetConfig",
    "generate_dieselnet_trace",
    "NUSConfig",
    "generate_nus_trace",
    "CommunityConfig",
    "RandomWaypointConfig",
    "generate_community_trace",
    "generate_random_waypoint_trace",
    "read_trace",
    "write_trace",
]
