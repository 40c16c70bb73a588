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
* :mod:`repro.runtime.node` — the device runtime: beaconing, peer
  facts from hellos, and proposals ranked by the simulator's own
  candidate builders and rank keys over those facts.
* :mod:`repro.runtime.harness` — a :class:`~repro.sim.runner.Simulation`
  whose contacts run through real frames; the day loop and the delivery
  metrics are the simulator's own.
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
