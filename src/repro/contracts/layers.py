"""The import-layer DAG: which ``repro`` packages may import which.

Two properties hang off the layering. First, picklability: ``run_many``
ships :class:`SimulationConfig` values (which reference ``repro.core``
strategy/credit objects) to worker processes, so the simulation core
must never drag in the executor, the CLI or matplotlib-adjacent
experiment code. Second, import cost: ``repro.detlint`` must stay
dependency-free so the linter can run in a bare checkout.

CON004 resolves each linted file to its module (the path tail after
the last ``repro/`` component), looks up the most specific entry here
(exact module, then enclosing packages), and flags any *module-level*
``repro`` import outside the allowance. Function-local imports are the
sanctioned escape hatch — they defer the dependency until call time,
which is exactly what keeps the core picklable — so CON004 ignores
them. Unknown modules (a freshly added top-level package) are flagged
until they get an entry here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

#: Allowed import targets per importer, as short top-level names
#: (``"exec"`` means ``repro.exec``). Importing inside your own
#: top-level package is always allowed and left implicit. Keys are
#: dotted module prefixes; the most specific key wins, so
#: ``repro.detlint.sanitizer`` can carry a wider allowance than
#: ``repro.detlint``.
LAYERS: Dict[str, FrozenSet[str]] = {
    # Leaf layers: shared types and the perf recorder import nothing.
    "repro.types": frozenset(),
    "repro.perf": frozenset(),
    # Trace pipeline and its consumers.
    "repro.traces": frozenset({"types"}),
    "repro.analysis": frozenset({"types", "traces"}),
    "repro.faults": frozenset({"types", "traces"}),
    # Catalog (Internet side) sits on types + perf only.
    "repro.catalog": frozenset({"types", "perf"}),
    # Radio messages sit on the catalog records they carry.
    "repro.net": frozenset({"types", "catalog"}),
    # The protocol core and the simulation harness are one layer (the
    # engine records core metrics; the runner drives the core), kept
    # free of exec/cli/experiments so configs stay picklable.
    "repro.core": frozenset(
        {"types", "perf", "catalog", "faults", "net", "traces", "sim"}
    ),
    "repro.sim": frozenset(
        {
            "types", "perf", "catalog", "core", "net", "faults", "traces",
            "detlint", "contracts",
        }
    ),
    # The asyncio-facing runtime drives the same core over real frames.
    "repro.runtime": frozenset({"types", "catalog", "core", "net", "sim", "traces"}),
    # Tooling: detlint is import-free; the sanitizer (runtime detcheck)
    # and the contracts registries are its only heavier corners. The
    # sim layer and the sanitizer read the counter registry, which
    # loads only data modules, so neither import closes a cycle.
    "repro.detlint": frozenset(),
    "repro.detlint.sanitizer": frozenset({"contracts", "sim", "traces"}),
    "repro.contracts": frozenset({"detlint"}),
    # Orchestration layers may reach down, never sideways into cli.
    "repro.exec": frozenset({"types", "detlint", "sim", "traces"}),
    "repro.experiments": frozenset(
        {"types", "analysis", "core", "exec", "sim", "traces"}
    ),
    # Entry points see everything below them.
    "repro.cli": frozenset(
        {
            "types", "perf", "traces", "analysis", "faults",
            "catalog", "net", "core", "sim", "runtime", "detlint",
            "contracts", "exec", "experiments",
        }
    ),
    "repro.__main__": frozenset({"cli"}),
    # The package facade re-exports the public API surface.
    "repro": frozenset(
        {
            "types", "perf", "traces", "analysis", "faults",
            "catalog", "net", "core", "sim", "runtime", "detlint",
            "contracts", "exec", "experiments",
        }
    ),
}


def module_for_path(path: str) -> Optional[str]:
    """Dotted module name for a file path, or None outside ``repro``.

    Resolution anchors on the *last* ``repro`` path component, so both
    the live tree (``src/repro/core/mbt.py``) and corpus mini-trees
    (``tests/.../src/repro/core/bad.py``) resolve the same way.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    if not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


def allowed_packages(module: str) -> Optional[Tuple[str, FrozenSet[str]]]:
    """``(registry key, allowed top-level names)`` for ``module``.

    Walks from the exact module up through its enclosing packages;
    returns None when no entry covers the module (a layering gap
    CON004 reports as its own finding).
    """
    probe = module
    while probe:
        if probe in LAYERS:
            # The bare "repro" facade entry covers only the facade
            # itself — an unknown package must not inherit it.
            if probe == "repro" and module != "repro":
                return None
            return probe, LAYERS[probe]
        probe = probe.rpartition(".")[0]
    return None


def import_target_top(target: str) -> str:
    """Short top-level name of an imported ``repro`` module."""
    parts = target.split(".")
    return parts[1] if len(parts) > 1 else "repro"
