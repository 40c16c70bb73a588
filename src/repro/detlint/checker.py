"""The AST pass: one visitor implementing rules DET001–DET005.

:func:`lint_source` is the pure entry point — source text plus the
path it (nominally) lives at, returning the unsuppressed findings.
Path scoping happens here (see :func:`repro.detlint.rules.rules_for_path`),
so callers can lint a string against a *virtual* path to exercise the
scoped rules in tests.

The pass is deliberately syntactic: it has no type information, so it
recognizes the *expressions* that produce unordered iterables or
ambient entropy (``set(...)``, ``x.values()``, ``time.time()``) rather
than the types themselves. That trades a class of false negatives
(``for x in some_set_valued_name``) for zero infrastructure — the same
trade the fix-it messages assume.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Union

from repro.detlint.findings import PARSE_ERROR_RULE, Finding
from repro.detlint.rules import (
    CONTRACT_RULE_IDS,
    FLOAT_STATE_NAMES,
    FLOAT_STATE_SUFFIXES,
    ORDER_PRESERVING_WRAPPERS,
    ORDERING_HELPERS,
    RULES,
    rules_for_path,
)
from repro.detlint.suppressions import SuppressionMap

#: ``random`` module functions whose call consumes (or mutates) the
#: process-global RNG stream. Anything lowercase on the module is one;
#: listing the common names keeps the intent greppable.
_GLOBAL_RNG_HINT = (
    "random, randint, randrange, choice, choices, sample, shuffle, "
    "uniform, gauss, seed, getstate, setstate, ..."
)

#: (module, attribute) calls that read ambient time or entropy.
_AMBIENT_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("os", "urandom"),
    ("os", "getrandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("secrets", "randbelow"),
}

#: ``datetime``-flavoured constructors of "now".
_NOW_ATTRS = {"now", "utcnow", "today"}


def _call_module_attr(node: ast.Call) -> Optional[tuple]:
    """``(module_name, attr)`` for ``module.attr(...)`` calls, else None.

    Resolves one dotted level (``time.time()``) and two
    (``datetime.datetime.now()`` -> ``("datetime", "now")``).
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return (value.id, func.attr)
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        # datetime.datetime.now() / datetime.date.today()
        return (value.value.id, func.attr)
    return None


def _unordered_iterable(expr: ast.expr) -> Optional[str]:
    """Description of ``expr`` if it is a raw unordered iterable.

    Recognizes set displays/comprehensions, ``set(...)``/
    ``frozenset(...)`` calls, set-algebra method calls and
    ``.values()`` views — unwrapping order-preserving wrappers such as
    ``list(...)`` and ``enumerate(...)`` first. Returns ``None`` for
    everything else, including ``sorted(...)`` and allow-listed
    canonical-ordering helpers.
    """
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Name):
        if func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if func.id in ORDERING_HELPERS:
            return None
        if func.id in ORDER_PRESERVING_WRAPPERS and expr.args:
            return _unordered_iterable(expr.args[0])
        return None
    if isinstance(func, ast.Attribute):
        if func.attr == "values" and not expr.args:
            return "a dict .values() view"
        if func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return f"a set .{func.attr}() result"
    return None


def _is_float_state_name(name: str) -> bool:
    return name in FLOAT_STATE_NAMES or name.endswith(FLOAT_STATE_SUFFIXES)


def _float_state_operand(expr: ast.expr) -> Optional[str]:
    """Description of ``expr`` if DET004 considers it float sim-state."""
    if isinstance(expr, ast.Constant) and type(expr.value) is float:
        return f"the float literal {expr.value!r}"
    if isinstance(expr, ast.Attribute) and _is_float_state_name(expr.attr):
        return f"attribute .{expr.attr}"
    if isinstance(expr, ast.Name) and _is_float_state_name(expr.id):
        return f"name {expr.id!r}"
    return None


def _is_literal_default(expr: ast.expr) -> bool:
    """Whether a ``dict.pop`` default is a safe literal."""
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        return isinstance(expr.operand, ast.Constant)
    if isinstance(expr, ast.Tuple):
        return all(_is_literal_default(el) for el in expr.elts)
    return False


_MUTABLE_DISPLAY = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}


def _mutable_default(expr: ast.expr) -> Optional[str]:
    """Description of ``expr`` if it is a mutable default argument."""
    if isinstance(expr, _MUTABLE_DISPLAY):
        return "a mutable literal"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in _MUTABLE_FACTORIES:
            return f"a {expr.func.id}() call"
    return None


class _DetVisitor(ast.NodeVisitor):
    """Collects raw findings; suppression filtering happens later."""

    def __init__(self, path: str, active: Set[str]) -> None:
        self.path = path
        self.active = active
        self.findings: List[Finding] = []
        #: Local aliases bound by ``from random import ...``.
        self._random_aliases: Set[str] = set()
        #: Local aliases of ambient time/entropy callables
        #: (``from time import time`` and friends).
        self._ambient_aliases: dict = {}

    # -- bookkeeping ------------------------------------------------------------

    def _add(self, node: ast.AST, rule_id: str, message: str) -> None:
        if rule_id not in self.active:
            return
        rule = RULES[rule_id]
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule_id,
                message=message,
                fixit=rule.fixit,
            )
        )

    # -- imports (alias tracking for DET001 / DET003) ---------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._random_aliases.add(alias.asname or alias.name)
        elif node.module in ("time", "uuid", "os", "secrets", "datetime"):
            for alias in node.names:
                key = (node.module, alias.name)
                if key in _AMBIENT_CALLS or (
                    node.module == "datetime" and alias.name in _NOW_ATTRS
                ):
                    self._ambient_aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self.generic_visit(node)

    # -- DET001 / DET003 / DET005(pop) ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng_call(node)
        self._check_ambient_call(node)
        self._check_pop_default(node)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call) -> None:
        func = node.func
        module_attr = _call_module_attr(node)
        if module_attr and module_attr[0] == "random":
            attr = module_attr[1]
            if attr == "Random":
                if not node.args and not node.keywords:
                    self._add(
                        node,
                        "DET001",
                        "random.Random() constructed without an explicit "
                        "seed argument (seeds from OS entropy)",
                    )
            elif attr == "SystemRandom":
                self._add(
                    node,
                    "DET001",
                    "random.SystemRandom() draws from OS entropy and can "
                    "never be seeded",
                )
            elif attr[:1].islower():
                self._add(
                    node,
                    "DET001",
                    f"random.{attr}() consumes the process-global RNG "
                    f"stream ({_GLOBAL_RNG_HINT})",
                )
            return
        if isinstance(func, ast.Name) and func.id in self._random_aliases:
            if func.id == "Random":
                if not node.args and not node.keywords:
                    self._add(
                        node,
                        "DET001",
                        "Random() (imported from random) constructed "
                        "without an explicit seed argument",
                    )
            else:
                self._add(
                    node,
                    "DET001",
                    f"{func.id}() (imported from random) consumes the "
                    "process-global RNG stream",
                )

    def _check_ambient_call(self, node: ast.Call) -> None:
        module_attr = _call_module_attr(node)
        if module_attr is not None:
            module, attr = module_attr
            if module_attr in _AMBIENT_CALLS:
                self._add(
                    node,
                    "DET003",
                    f"{module}.{attr}() reads ambient wall-clock/entropy "
                    "state inside a simulation path",
                )
                return
            if module == "datetime" and attr in _NOW_ATTRS:
                self._add(
                    node,
                    "DET003",
                    f"datetime {attr}() reads the wall clock inside a "
                    "simulation path",
                )
                return
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._ambient_aliases:
            self._add(
                node,
                "DET003",
                f"{self._ambient_aliases[func.id]}() (imported alias) reads "
                "ambient wall-clock/entropy state inside a simulation path",
            )

    def _check_pop_default(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and len(node.args) == 2
            and not _is_literal_default(node.args[1])
        ):
            self._add(
                node,
                "DET005",
                ".pop(key, default) with a non-literal default — the "
                "default expression is evaluated (and may be shared) on "
                "every call",
            )

    # -- DET002 -----------------------------------------------------------------

    def _check_iter(self, expr: ast.expr) -> None:
        description = _unordered_iterable(expr)
        if description is not None:
            self._add(
                expr,
                "DET002",
                f"iteration over {description}: order can depend on hash "
                "seeding / insertion history",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_SetComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    # -- DET004 -----------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[index], operands[index + 1]):
                description = _float_state_operand(side)
                if description is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    self._add(
                        node,
                        "DET004",
                        f"float {symbol} comparison on {description}; exact "
                        "float identity is fragile simulation state",
                    )
                    break
        self.generic_visit(node)

    # -- DET005 (mutable defaults) ----------------------------------------------

    def _check_defaults(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    ) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            description = _mutable_default(default)
            if description is not None:
                self._add(
                    default,
                    "DET005",
                    f"mutable default argument ({description}) is shared "
                    "across every call of the handler",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_source(
    source: str,
    path: str,
    *,
    all_rules: bool = False,
    suppressions: bool = True,
    contracts: bool = False,
) -> List[Finding]:
    """Lint one source text as if it lived at ``path``.

    Applies path scoping (unless ``all_rules``) and suppression
    comments (unless ``suppressions=False``), returning findings
    sorted by location. The CON contract rules only participate when
    ``contracts=True`` (they need the registries of
    :mod:`repro.contracts`, which stays unimported otherwise).
    """
    active = set(rules_for_path(path, all_rules=all_rules))
    contract_active = active & set(CONTRACT_RULE_IDS) if contracts else set()
    active -= set(CONTRACT_RULE_IDS)
    if not active and not contract_active:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {exc.msg}",
                fixit="fix the syntax error; detlint only checks parseable files",
            )
        ]
    visitor = _DetVisitor(path, active)
    visitor.visit(tree)
    findings = visitor.findings
    if contract_active:
        # Deferred so plain DET linting never imports the registries.
        from repro.contracts.checks import lint_tree_contracts

        findings = findings + lint_tree_contracts(tree, path, contract_active)
    if suppressions:
        smap = SuppressionMap(source)
        findings = [f for f in findings if not smap.suppresses(f.line, f.rule)]
    return sorted(findings)
