"""The knob registry: every ``SimulationConfig`` field and its surfaces.

A simulation knob has up to three public surfaces that must stay in
sync with the dataclass field:

* the ``repro run`` CLI flags that set it (``flags``; several flags
  may feed one field, e.g. the five fault-rate flags build the
  ``faults`` plan; a field with no flags must say why in ``api_only``);
* the ``docs/API.md`` anchor — the backticked field name must appear
  in the API reference (``doc`` overrides the anchor text);
* the printed identity of a run: the config's repr is what a
  :class:`~repro.exec.RunError`, a failed equality assertion or a log
  line shows of a run, so every field must participate in the
  dataclass repr (``repr=False`` on a field would make two runs that
  differ in it print alike).

Tier-1 (``tests/test_contracts.py``) checks each ``SimulationConfig``
field against this registry and its ``repr``, each registered flag
against ``cli.py``, and each anchor against ``docs/API.md``. To add a
knob: add the dataclass field, register it here, and document it in
``docs/API.md`` (plus a CLI flag, or an ``api_only`` rationale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class KnobSpec:
    """One registered ``SimulationConfig`` field."""

    field: str
    #: CLI flags of ``repro run`` that feed this field (may be empty).
    flags: Tuple[str, ...] = ()
    #: Why the knob has no CLI flag (required when ``flags`` is empty).
    api_only: str = ""
    #: Anchor text in ``docs/API.md`` when it differs from ``field``.
    doc: str = ""

    @property
    def doc_anchor(self) -> str:
        return self.doc or self.field


_PYTHON_API = "set via the Python API"

KNOB_REGISTRY: Dict[str, KnobSpec] = {
    spec.field: spec
    for spec in (
        KnobSpec("internet_access_fraction", flags=("--access",)),
        KnobSpec("files_per_day", flags=("--files-per-day",)),
        KnobSpec("ttl_days", flags=("--ttl",)),
        KnobSpec("metadata_per_contact", flags=("--metadata-per-contact",)),
        KnobSpec("files_per_contact", flags=("--files-per-contact",)),
        KnobSpec("pieces_per_file", api_only=_PYTHON_API),
        KnobSpec("variant", flags=("--protocol",)),
        KnobSpec("tit_for_tat", flags=("--tit-for-tat",)),
        KnobSpec("broadcast", flags=("--pairwise",)),
        KnobSpec("scheduling", api_only=_PYTHON_API),
        KnobSpec("frequent_contact_max_gap_days", api_only=_PYTHON_API),
        KnobSpec("num_days", api_only="derived from --scale / the trace span"),
        KnobSpec("metadata_capacity", api_only=_PYTHON_API),
        KnobSpec("metadata_policy", api_only=_PYTHON_API),
        KnobSpec("use_duration_budgets", api_only=_PYTHON_API),
        KnobSpec("verify_signatures", api_only=_PYTHON_API),
        KnobSpec("encrypted_choking", api_only=_PYTHON_API),
        KnobSpec("selection_policy", api_only=_PYTHON_API),
        KnobSpec("track_popularity", api_only=_PYTHON_API),
        KnobSpec(
            "faults",
            flags=(
                "--loss-rate",
                "--corruption-rate",
                "--contact-drop-rate",
                "--churn-rate",
                "--fault-seed",
            ),
        ),
        KnobSpec(
            "adversaries",
            flags=("--adversary-fraction", "--strategy-mix", "--adversary-seed"),
        ),
        KnobSpec("credit_policy", flags=("--credit-policy",)),
        KnobSpec("max_events", api_only="safety valve; set via the Python API"),
        KnobSpec("profile", flags=("--profile",)),
        KnobSpec("seed", flags=("--seed",)),
    )
}
