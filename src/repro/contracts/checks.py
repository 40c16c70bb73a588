"""The CON-rule checkers: per-file AST passes.

:func:`lint_tree_contracts` runs on an already-parsed module when
detlint's ``--contracts`` is on — CON001 (counter-key literals,
including literals passed to recorder ``.count`` calls and the literal
heads of key-building f-strings) and CON004 (module-level import
layering). The knob registry and the reference-twin signatures are
run-time facts, so tier-1 (``tests/test_contracts.py``) checks them
against the imported modules instead of the source text.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.contracts.counters import (
    RECORDER_NAMESPACES,
    SELF_RECORDER_MODULES,
    check_counter_key,
)
from repro.contracts.layers import (
    allowed_packages,
    import_target_top,
    module_for_path,
)
from repro.detlint.findings import Finding

#: A string literal (or the literal head of an f-string) is treated as
#: a counter key iff it looks like one: a namespace root followed only
#: by key characters.
_KEY_LITERAL = re.compile(r"^(?:perf|faults|adversary|detcheck)\.[A-Za-z0-9_.]*$")


def _finding(path: str, line: int, col: int, rule: str, message: str) -> Finding:
    from repro.detlint.rules import RULES

    return Finding(
        path=path, line=line, col=col, rule=rule, message=message,
        fixit=RULES[rule].fixit,
    )


class _ContractVisitor(ast.NodeVisitor):
    """CON001 (counter literals) and CON004 (import layering)."""

    def __init__(self, path: str, active: Set[str]) -> None:
        self.path = path
        self.active = active
        self.findings: List[Finding] = []
        self._handled: Set[int] = set()
        normalized = path.replace("\\", "/")
        self._self_namespace = next(
            (
                namespace
                for suffix, namespace in SELF_RECORDER_MODULES.items()
                if normalized.endswith(suffix)
            ),
            None,
        )

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.active:
            self.findings.append(
                _finding(
                    self.path,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0) + 1,
                    rule,
                    message,
                )
            )

    # -- CON001 ------------------------------------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        # Docstrings and bare prose strings are not counter keys.
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return
        self.generic_visit(node)

    def _recorder_namespace(self, func: ast.expr) -> Optional[str]:
        """Namespace a ``<receiver>.count(...)`` call records into."""
        if not (isinstance(func, ast.Attribute) and func.attr == "count"):
            return None
        receiver = func.value
        if isinstance(receiver, ast.Name):
            name = receiver.id
            if name == "self":
                return self._self_namespace
            return RECORDER_NAMESPACES.get(name)
        if isinstance(receiver, ast.Attribute):
            return RECORDER_NAMESPACES.get(receiver.attr)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        namespace = self._recorder_namespace(node.func)
        if namespace and node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                self._handled.add(id(node.args[0]))
                problem = check_counter_key(namespace + value)
                if problem:
                    self._add(
                        node.args[0],
                        "CON001",
                        f"recorder call lands in {namespace}* — {problem} "
                        "(register it in repro.contracts.counters)",
                    )
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            id(node) not in self._handled
            and isinstance(node.value, str)
            and _KEY_LITERAL.match(node.value)
        ):
            problem = check_counter_key(node.value)
            if problem:
                self._add(
                    node,
                    "CON001",
                    f"{problem} (register it in repro.contracts.counters)",
                )

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        head = node.values[0] if node.values else None
        if (
            isinstance(head, ast.Constant)
            and isinstance(head.value, str)
            and _KEY_LITERAL.match(head.value)
        ):
            problem = check_counter_key(head.value, prefix_only=True)
            if problem:
                self._add(
                    node,
                    "CON001",
                    f"f-string builds a counter key: {problem} "
                    "(register the prefix in repro.contracts.counters)",
                )
        # Do not descend: formatted values cannot hold key literals.


def _module_level_imports(
    tree: ast.Module,
) -> Iterable[Tuple[ast.stmt, str, int]]:
    """``(node, dotted-target, level)`` for import statements that run at
    import time: module body, class bodies, and top-level if/try arms.
    Function bodies are excluded — the lazy-import escape hatch."""

    def walk(body: Sequence[ast.stmt]) -> Iterable[Tuple[ast.stmt, str, int]]:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name, 0
            elif isinstance(node, ast.ImportFrom):
                yield node, node.module or "", node.level
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body)
            elif isinstance(node, (ast.If, ast.Try)):
                yield from walk(node.body)
                yield from walk(node.orelse)
                for handler in getattr(node, "handlers", []):
                    yield from walk(handler.body)
                yield from walk(getattr(node, "finalbody", []))

    return walk(tree.body)


def _check_layering(tree: ast.Module, path: str, active: Set[str]) -> List[Finding]:
    if "CON004" not in active:
        return []
    module = module_for_path(path)
    if module is None:
        return []
    findings: List[Finding] = []
    allowance = allowed_packages(module)
    own_top = import_target_top(module) if "." in module else "repro"
    imports = list(_module_level_imports(tree))
    if allowance is None:
        if any(target.startswith("repro") or level for _, target, level in imports):
            findings.append(
                _finding(
                    path, 1, 1, "CON004",
                    f"module {module} is not covered by the import-layer "
                    "registry (repro.contracts.layers.LAYERS)",
                )
            )
        return findings
    key, allowed = allowance
    package_parts = module.split(".")
    for node, target, level in imports:
        if level:
            base = list(package_parts)
            if not path.replace("\\", "/").endswith("__init__.py"):
                base = base[:-1]
            base = base[: len(base) - (level - 1)]
            target = ".".join(base + ([target] if target else []))
        if not (target == "repro" or target.startswith("repro.")):
            continue
        top = import_target_top(target)
        if top == own_top or top in allowed:
            continue
        findings.append(
            _finding(
                path,
                node.lineno,
                node.col_offset + 1,
                "CON004",
                f"layer violation: {key} may not import repro.{top} at "
                "module level (allowed: "
                f"{', '.join(sorted(allowed)) or 'nothing'}; use a "
                "function-local import if the dependency is unavoidable)",
            )
        )
    return findings


def lint_tree_contracts(
    tree: ast.Module, path: str, active: Set[str]
) -> List[Finding]:
    """Per-file contract findings for an already-parsed module."""
    findings: List[Finding] = []
    if "CON001" in active:
        visitor = _ContractVisitor(path, active)
        visitor.visit(tree)
        findings.extend(visitor.findings)
    findings.extend(_check_layering(tree, path, active))
    return findings
