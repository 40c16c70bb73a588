"""Wire-level protocol runtime: the deployable form of MBT.

The simulator in :mod:`repro.sim` is *omniscient*: contact processing
reads every member's stores directly. A deployment cannot — each device
knows only what arrived over the radio. This package implements that
constraint end-to-end (the paper's declared future work, §VII:
"the deployment of our protocol on real devices"):

* :mod:`repro.runtime.codec` — a versioned, length-checked wire format
  for hello / metadata / piece frames (JSON body, binary-safe payload).
* :mod:`repro.runtime.radio` — an emulated broadcast radio: frames put
  on the air reach every node in the contact, with byte accounting.
* :mod:`repro.runtime.node` — the device runtime: beaconing, neighbor
  tables, local candidate selection from hello-carried state summaries,
  cyclic-order transmission (no coordinator messages needed).
* :mod:`repro.runtime.harness` — a :class:`~repro.sim.runner.Simulation`
  whose contacts run through real frames; the day loop and the delivery
  metrics are the simulator's own.

The test-suite validates the runtime against the simulator: with
identical traces, catalogs and budgets, the wire-level implementation
delivers the same files (see ``tests/test_runtime.py``).
"""

from repro.runtime.codec import (
    CodecError,
    Frame,
    FrameType,
    decode_frame,
    encode_frame,
)
from repro.runtime.harness import RuntimeHarness, RuntimeConfig
from repro.runtime.node import DTNNode
from repro.runtime.radio import EmulatedRadio

__all__ = [
    "CodecError",
    "Frame",
    "FrameType",
    "decode_frame",
    "encode_frame",
    "RuntimeHarness",
    "RuntimeConfig",
    "DTNNode",
    "EmulatedRadio",
]
