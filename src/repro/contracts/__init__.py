"""Machine-readable cross-layer contracts and the CON-rule checkers.

The reproduction's correctness story rests on invariants that used to
live only in conventions: stringly-typed counter keys with
prefix-based fingerprint exclusion, :class:`SimulationConfig` fields
that must be mirrored in the CLI and ``docs/API.md``, reference twins
that specify the optimized candidate builders, and an import
layering that keeps ``repro.core`` picklable for ``run_many`` workers.
This package turns each convention into data plus an AST check:

``counters``
    every counter key family (``perf.*``, ``faults.*``,
    ``adversary.*``, ``detcheck.*``) with its fingerprint class
    (deterministic / excluded) — rules CON001/CON002;
``knobs``
    every :class:`SimulationConfig` field mapped to its CLI flags and
    ``docs/API.md`` anchor — rule CON003;
``layers``
    the allowed import DAG between ``repro`` packages — rule CON004;
``seams``
    the reference twins that must stay signature-compatible with the
    optimized paths they specify — rule CON005;
``wire``
    the metadata record fields and the frame body keys that
    ``repro.runtime.codec`` builds and reads — rule CON006.

The checks plug into detlint (``python -m repro.detlint --contracts``
or ``repro lint --contracts``) and reuse its findings, path-scoping
and suppression machinery; see ``docs/CONTRACTS.md`` for the rule
reference and how to register a new counter or knob.
"""

from __future__ import annotations

from repro.contracts.counters import (
    COUNTER_PREFIXES,
    COUNTER_REGISTRY,
    CounterSpec,
    NAMESPACE_ROOTS,
    check_counter_key,
    excluded_prefixes,
    surfaced_keys,
)
from repro.contracts.knobs import KNOB_REGISTRY, KnobSpec
from repro.contracts.layers import LAYERS, allowed_packages, module_for_path
from repro.contracts.seams import SEAM_REGISTRY, SeamSpec
from repro.contracts.wire import (
    FRAME_BODY_KEYS,
    FRAME_ENVELOPE_KEYS,
    METADATA_RECORD_FIELDS,
)

__all__ = [
    "COUNTER_PREFIXES",
    "COUNTER_REGISTRY",
    "CounterSpec",
    "NAMESPACE_ROOTS",
    "check_counter_key",
    "excluded_prefixes",
    "surfaced_keys",
    "KNOB_REGISTRY",
    "KnobSpec",
    "LAYERS",
    "allowed_packages",
    "module_for_path",
    "SEAM_REGISTRY",
    "SeamSpec",
    "FRAME_BODY_KEYS",
    "FRAME_ENVELOPE_KEYS",
    "METADATA_RECORD_FIELDS",
]
