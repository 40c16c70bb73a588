"""The detlint rule registry: what each rule forbids, where, and why.

Every rule carries a stable ID (``DET001``…), a one-line summary used
in findings, a fix-it message, and a tuple of *path scopes* — substring
fragments of the POSIX-style file path that opt a file into the rule.
Scoping encodes the determinism contract of ``docs/DETERMINISM.md``:
the simulation core must be bitwise deterministic, while e.g. the
benchmark harness may freely read wall clocks.

Suppressing a finding
---------------------
Append ``# detlint: ignore[DET002]`` to the flagged line (or put the
comment alone on the line above) together with a short justification.
A bare ``# detlint: ignore`` suppresses every rule on that line;
prefer the bracketed form so unrelated regressions still surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

#: Path fragments of the deterministic simulation core. DET001 (RNG)
#: additionally covers the trace generators and the fault injector —
#: both consume randomness, which is fine, but only through an
#: explicitly seeded ``random.Random``.
#: ``repro/catalog`` stays out of the core scope: only the RNG/time
#: rules apply there. ``repro/runtime`` (the frame-level harness
#: replays the same protocol) is a full core member.
_SIM_CORE = (
    "repro/core",
    "repro/sim",
    "repro/net",
    "repro/runtime",
)
_RNG_SCOPE = _SIM_CORE + ("repro/traces", "repro/faults", "repro/catalog")
_TIME_SCOPE = _RNG_SCOPE

#: Path fragment of the whole package: the cross-layer contract rules
#: (CON001, CON004) apply to any file that resolves into ``repro``,
#: live tree or corpus mini-tree alike — but only when contracts
#: checking is switched on (``--contracts``). The missing CON ids are
#: retired and never reused.
_CONTRACT_SCOPE = ("repro/",)

#: Callable names treated as canonical-ordering helpers: iterating
#: their return value is deterministic even when the input was a set.
ORDERING_HELPERS: FrozenSet[str] = frozenset({"sorted", "canonical_order"})

#: Wrappers that preserve their argument's iteration order — iterating
#: ``list(set(...))`` is exactly as hash-order-dependent as the set.
ORDER_PRESERVING_WRAPPERS: FrozenSet[str] = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed"}
)

#: Attribute names whose ``==``/``!=`` comparison DET004 treats as a
#: float simulation-state comparison. Exact names, plus any name
#: ending in ``_at`` or ``_time`` (delivery instants, wall clocks).
FLOAT_STATE_NAMES: FrozenSet[str] = frozenset(
    {"now", "time", "start", "end", "ttl", "deadline", "duration", "horizon"}
)
FLOAT_STATE_SUFFIXES: Tuple[str, ...] = ("_at", "_time", "_seconds")


@dataclass(frozen=True)
class Rule:
    """One static determinism rule."""

    id: str
    title: str
    summary: str
    fixit: str
    #: POSIX-path fragments that opt a file in; empty = every file.
    scopes: Tuple[str, ...]


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="DET001",
            title="global or unseeded RNG",
            summary=(
                "module-level random.* call or random.Random() without an "
                "explicit seed in a simulation path"
            ),
            fixit=(
                "derive randomness from an explicitly seeded random.Random "
                "instance threaded from the run's config/seed"
            ),
            scopes=_RNG_SCOPE,
        ),
        Rule(
            id="DET002",
            title="unordered iteration",
            summary=(
                "iteration over a raw set/frozenset/dict-values view in the "
                "simulation core"
            ),
            fixit=(
                "wrap the iterable in sorted(...) (or an allow-listed "
                "canonical-ordering helper) so iteration order cannot depend "
                "on hash seeding or insertion history"
            ),
            scopes=_SIM_CORE,
        ),
        Rule(
            id="DET003",
            title="ambient time or entropy",
            summary=(
                "wall-clock/entropy read (time.time, datetime.now, "
                "os.urandom, uuid.uuid4, ...) inside a simulation path"
            ),
            fixit=(
                "only the engine clock (Simulator.now) may supply time "
                "inside the simulation; take `now` as a parameter"
            ),
            scopes=_TIME_SCOPE,
        ),
        Rule(
            id="DET004",
            title="float equality",
            summary=(
                "== / != comparison on float simulation state (times, "
                "delivery instants, float literals)"
            ),
            fixit=(
                "compare with an ordering (<=, >=), a tolerance, or justify "
                "the exact identity check with a suppression comment"
            ),
            scopes=_SIM_CORE,
        ),
        Rule(
            id="DET005",
            title="mutable default / non-literal pop default",
            summary=(
                "mutable default argument, or dict.pop with a non-literal "
                "default, in a protocol handler"
            ),
            fixit=(
                "default to None and construct inside the function; pass "
                "literal pop defaults so no shared object escapes"
            ),
            scopes=("repro/core", "repro/net", "repro/runtime"),
        ),
        Rule(
            id="CON001",
            title="unregistered counter key",
            summary=(
                "counter-key literal (perf./faults./adversary./detcheck.) "
                "not declared in the contracts counter registry"
            ),
            fixit=(
                "register the key (or prefix) in repro.contracts.counters "
                "with its fingerprint class, and surfaced=True if "
                "--counters should show it"
            ),
            scopes=_CONTRACT_SCOPE,
        ),
        Rule(
            id="CON004",
            title="import-layering violation",
            summary=(
                "module-level import of a repro package outside the "
                "importer's allowance in the layer registry"
            ),
            fixit=(
                "move the import inside the function that needs it, or "
                "widen repro.contracts.layers.LAYERS if the layering "
                "genuinely changed"
            ),
            scopes=_CONTRACT_SCOPE,
        ),
    )
}

ALL_RULE_IDS: Tuple[str, ...] = tuple(sorted(RULES))

#: The contract-rule family: scoped like any other rule, but only
#: active when contracts checking is requested (``--contracts``).
CONTRACT_RULE_IDS: Tuple[str, ...] = tuple(
    rule_id for rule_id in ALL_RULE_IDS if rule_id.startswith("CON")
)

#: The determinism-rule family (always active).
DET_RULE_IDS: Tuple[str, ...] = tuple(
    rule_id for rule_id in ALL_RULE_IDS if rule_id.startswith("DET")
)


def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def rules_for_path(path: str, all_rules: bool = False) -> FrozenSet[str]:
    """IDs of the rules that apply to ``path`` (scope matching).

    ``all_rules=True`` ignores scoping — used for ad-hoc checks of
    files outside the repository layout.
    """
    if all_rules:
        return frozenset(RULES)
    normalized = _normalized(path)
    return frozenset(
        rule.id
        for rule in RULES.values()
        if any(fragment in normalized for fragment in rule.scopes)
    )


def format_rule_table() -> str:
    """Readable rule reference (the ``--list-rules`` output)."""
    lines = []
    for rule_id in ALL_RULE_IDS:
        rule = RULES[rule_id]
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"    flags : {rule.summary}")
        lines.append(f"    fix   : {rule.fixit}")
        lines.append(f"    scope : {', '.join(rule.scopes)}")
    return "\n".join(lines)
