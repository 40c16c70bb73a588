"""repro.detlint — AST determinism & invariant linter + runtime sanitizer.

Every reproduced figure rests on bitwise-deterministic simulation:
``run_many(jobs=4)`` must equal ``jobs=1``, a rerun must equal the
first run, and the grid contact extractor must equal the all-pairs
reference. This package defends that property *before* the
tests do:

* the **static pass** (``repro lint`` / :func:`lint_paths`) walks the
  source tree with :mod:`ast` and flags the classic determinism bugs —
  unseeded RNG (DET001), hash-order iteration (DET002), wall-clock
  reads (DET003), float equality on simulation state (DET004) and
  mutable-default aliasing (DET005) — each with a fix-it message and a
  ``# detlint: ignore[RULE]`` suppression;
* the **runtime sanitizer** (:mod:`repro.detlint.sanitizer`, enabled
  by ``REPRO_DETCHECK=1`` or ``--detcheck``) pins ``PYTHONHASHSEED``,
  guards the global RNG between events, and cross-checks result
  fingerprints across two inline runs.

The sanitizer is *not* imported here: it pulls in the simulation
stack, which in turn records the pinned hash seed via the
dependency-free :mod:`repro.detlint.hashseed` — importing it from
``__init__`` would close an import cycle. Use
``from repro.detlint import sanitizer`` explicitly.

See ``docs/DETERMINISM.md`` for the full determinism contract and the
rule reference table.
"""

from repro.detlint.checker import lint_source, lint_sources
from repro.detlint.findings import (
    FORMATTERS,
    PARSE_ERROR_RULE,
    Finding,
    format_github,
    format_json,
    format_text,
)
from repro.detlint.rules import ALL_RULE_IDS, RULES, Rule, rules_for_path
from repro.detlint.runner import LintReport, iter_python_files, lint_paths, main

__all__ = [
    "ALL_RULE_IDS",
    "FORMATTERS",
    "Finding",
    "LintReport",
    "PARSE_ERROR_RULE",
    "RULES",
    "Rule",
    "format_github",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "main",
    "rules_for_path",
]
