"""The paper's primary contribution: cooperative file sharing (MBT).

* :mod:`repro.core.node` — per-node protocol state (stores, queries,
  neighbors, frequent contacts).
* :mod:`repro.core.credits` — the tit-for-tat credit ledger (§IV-B).
* :mod:`repro.core.discovery` — metadata candidates and their
  cooperative and tit-for-tat rank keys (§IV).
* :mod:`repro.core.download` — piece candidates and their cooperative
  and tit-for-tat rank keys (§V).
* :mod:`repro.core.coordinator` — the seeded cyclic broadcast order
  (§V-B).
* :mod:`repro.core.mbt` — the MBT / MBT-Q / MBT-QM protocol engine.
"""

from repro.core.credits import CreditLedger, REQUESTED_METADATA_CREDIT
from repro.core.mbt import MobileBitTorrent, ProtocolConfig, ProtocolVariant
from repro.core.node import NodeState

__all__ = [
    "CreditLedger",
    "REQUESTED_METADATA_CREDIT",
    "MobileBitTorrent",
    "ProtocolConfig",
    "ProtocolVariant",
    "NodeState",
]
