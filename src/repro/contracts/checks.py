"""The CON-rule checkers: per-file AST passes and project-level drift checks.

Two entry points, both called from detlint when ``--contracts`` is on:

:func:`lint_tree_contracts`
    per-file rules on an already-parsed module — CON001 (counter-key
    literals, including literals passed to recorder ``.count`` calls
    and the literal heads of key-building f-strings) and CON004
    (module-level import layering);
:func:`project_findings`
    cross-file rules run once per discovered ``repro`` package root —
    the CON001 ``COUNTER_KEYS`` cross-check, CON002 (fingerprint
    exclusion list vs registry), CON003 (knob/CLI/docs coverage),
    CON005 (seam signature parity) and CON006 (wire-schema drift).

A *package root* is any directory literally named ``repro`` that
contains linted files, so the same checks run against the live tree
(``src/repro``) and against corpus mini-trees
(``tests/detlint_corpus/contracts_project/src/repro``). Checks whose
source files are absent from a (partial) tree skip silently — except
a half-missing seam, which is exactly the drift CON005 exists for.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.contracts.counters import (
    RECORDER_NAMESPACES,
    SELF_RECORDER_MODULES,
    check_counter_key,
    excluded_prefixes,
    surfaced_keys,
)
from repro.contracts.knobs import KNOB_REGISTRY
from repro.contracts.layers import (
    allowed_packages,
    import_target_top,
    module_for_path,
)
from repro.contracts.seams import SEAM_REGISTRY, SeamSpec
from repro.contracts.wire import (
    FRAME_BODY_KEYS,
    FRAME_ENVELOPE_KEYS,
    MESSAGE_FIELDS,
    METADATA_RECORD_FIELDS,
)
from repro.detlint.findings import Finding

#: A string literal is treated as a counter key iff it looks like one:
#: a namespace root followed only by key characters.
_KEY_LITERAL = re.compile(r"^(?:perf|faults|adversary|detcheck)\.[A-Za-z0-9_.]*$")
_KEY_HEAD = re.compile(r"^(?:perf|faults|adversary|detcheck)\.[A-Za-z0-9_.]*$")


def _finding(path: str, line: int, col: int, rule: str, message: str) -> Finding:
    from repro.detlint.rules import RULES

    return Finding(
        path=path, line=line, col=col, rule=rule, message=message,
        fixit=RULES[rule].fixit,
    )


# --------------------------------------------------------------- per-file


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
            if (
                isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and receiver.attr == "count"
            ):  # pragma: no cover - self.count handled via Name above
                return None
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
            and _KEY_HEAD.match(head.value)
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


# ------------------------------------------------------------- project


def _repro_roots(files: Sequence[Path]) -> List[Path]:
    roots: Set[Path] = set()
    for file in files:
        parts = file.parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            roots.add(Path(*parts[: index + 1]))
    return sorted(roots)


class _Tree:
    """Lazily parsed source files under one repro package root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._cache: Dict[str, Optional[Tuple[ast.Module, str]]] = {}

    def parse(self, rel: str) -> Optional[Tuple[ast.Module, str]]:
        if rel not in self._cache:
            path = self.root / rel
            result: Optional[Tuple[ast.Module, str]] = None
            if path.is_file():
                try:
                    result = (
                        ast.parse(path.read_text(encoding="utf-8")),
                        path.as_posix(),
                    )
                except (SyntaxError, UnicodeDecodeError, OSError):
                    result = None  # DET000 surfaces via the per-file pass
            self._cache[rel] = result
        return self._cache[rel]

    def exists(self, rel: str) -> bool:
        return (self.root / rel).is_file()

    def docs_text(self, name: str) -> Optional[str]:
        for candidate in (
            self.root.parent.parent / "docs" / name,
            self.root.parent / "docs" / name,
        ):
            if candidate.is_file():
                return candidate.read_text(encoding="utf-8")
        return None


def _str_tuple(node: ast.expr) -> Optional[Tuple[Tuple[str, ...], int]]:
    """String elements of a tuple/list display, with its line."""
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
        return tuple(out), node.lineno
    return None


def _assigned_tuple(
    tree: ast.Module, name: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    """Top-level ``NAME = ("...", ...)`` assignment contents."""
    for node in tree.body:
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == name:
            return _str_tuple(value)
    return None


def _class_def(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _function_def(
    tree: ast.Module, name: str
) -> Optional[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node  # type: ignore[return-value]
    return None


def _ann_fields(cls: ast.ClassDef) -> List[Tuple[str, int, ast.AnnAssign]]:
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.target.id, node.lineno, node))
    return out


def _params(fn: ast.FunctionDef) -> Tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


# -- CON001 cross-check: COUNTER_KEYS vs registry ---------------------------


def _check_counter_surface(tree: _Tree) -> List[Finding]:
    parsed = tree.parse("sim/metrics.py")
    if parsed is None:
        return []
    module, path = parsed
    listed = _assigned_tuple(module, "COUNTER_KEYS")
    if listed is None:
        return []
    keys, line = listed
    registered = surfaced_keys()
    findings = []
    for key in sorted(set(keys) - registered):
        findings.append(
            _finding(
                path, line, 1, "CON001",
                f"COUNTER_KEYS lists {key!r} but the contracts counter "
                "registry does not mark it surfaced",
            )
        )
    for key in sorted(registered - set(keys)):
        findings.append(
            _finding(
                path, line, 1, "CON001",
                f"counter {key!r} is registered as surfaced but missing "
                "from COUNTER_KEYS",
            )
        )
    return findings


# -- CON002: fingerprint-exclusion drift ------------------------------------


def _check_fingerprint_registry(tree: _Tree) -> List[Finding]:
    parsed = tree.parse("detlint/sanitizer.py")
    if parsed is None:
        return []
    module, path = parsed
    listed = _assigned_tuple(module, "FINGERPRINT_IGNORED_PREFIXES")
    if listed is None:
        return []
    prefixes, line = listed
    expected = excluded_prefixes()
    findings = []
    for prefix in sorted(set(expected) - set(prefixes)):
        findings.append(
            _finding(
                path, line, 1, "CON002",
                f"registry marks {prefix!r} fingerprint-excluded but "
                "FINGERPRINT_IGNORED_PREFIXES does not strip it",
            )
        )
    for prefix in sorted(set(prefixes) - set(expected)):
        findings.append(
            _finding(
                path, line, 1, "CON002",
                f"FINGERPRINT_IGNORED_PREFIXES strips {prefix!r}, which the "
                "contracts counter registry does not mark excluded",
            )
        )
    return findings


# -- CON003: knob coverage --------------------------------------------------


def _cli_strings(tree: _Tree) -> Optional[Set[str]]:
    parsed = tree.parse("cli.py")
    if parsed is None:
        return None
    module, _ = parsed
    return {
        node.value
        for node in ast.walk(module)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _field_call_keywords(node: ast.AnnAssign) -> Dict[str, ast.expr]:
    value = node.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "field"
    ):
        return {kw.arg: kw.value for kw in value.keywords if kw.arg}
    return {}


def _check_knobs(tree: _Tree) -> List[Finding]:
    parsed = tree.parse("sim/runner.py")
    if parsed is None:
        return []
    module, path = parsed
    config = _class_def(module, "SimulationConfig")
    if config is None:
        return []
    cli_strings = _cli_strings(tree)
    docs = tree.docs_text("API.md")
    findings = []
    fields = _ann_fields(config)
    for name, line, node in fields:
        spec = KNOB_REGISTRY.get(name)
        if spec is None:
            findings.append(
                _finding(
                    path, line, 1, "CON003",
                    f"SimulationConfig field {name!r} is not in the knob "
                    "registry (repro.contracts.knobs)",
                )
            )
            continue
        repr_kw = _field_call_keywords(node).get("repr")
        if isinstance(repr_kw, ast.Constant) and repr_kw.value is False:
            findings.append(
                _finding(
                    path, line, 1, "CON003",
                    f"field {name!r} sets repr=False, so two runs that differ "
                    "in it print alike (errors, assertion diffs, logs)",
                )
            )
        if not spec.flags and not spec.api_only:
            findings.append(
                _finding(
                    path, line, 1, "CON003",
                    f"knob {name!r} is registered with neither CLI flags "
                    "nor an api_only rationale",
                )
            )
        if cli_strings is not None:
            for flag in spec.flags:
                if flag not in cli_strings:
                    findings.append(
                        _finding(
                            path, line, 1, "CON003",
                            f"knob {name!r} declares CLI flag {flag!r} but "
                            "cli.py defines no such flag",
                        )
                    )
        if docs is not None and f"`{spec.doc_anchor}`" not in docs:
            findings.append(
                _finding(
                    path, line, 1, "CON003",
                    f"knob {name!r} has no `{spec.doc_anchor}` anchor in "
                    "docs/API.md",
                )
            )
    stale = sorted(set(KNOB_REGISTRY) - {name for name, _, _ in fields})
    if stale:
        findings.append(
            _finding(
                path, config.lineno, 1, "CON003",
                "knob registry entries without a SimulationConfig field: "
                + ", ".join(stale),
            )
        )
    return findings


# -- CON005: seam parity ----------------------------------------------------


def _seam_findings(tree: _Tree, seam: SeamSpec) -> List[Finding]:
    left_parsed = tree.parse(seam.left[0])
    right_parsed = tree.parse(seam.right[0])
    if left_parsed is None and right_parsed is None:
        if tree.exists(seam.left[0]) or tree.exists(seam.right[0]):
            return []  # unparseable: the per-file pass reports DET000
        return []  # partial tree without this seam at all
    findings = []
    for parsed, anchor, (rel, qualname) in (
        (left_parsed, right_parsed, seam.left),
        (right_parsed, left_parsed, seam.right),
    ):
        if parsed is None and anchor is not None and not tree.exists(rel):
            findings.append(
                _finding(
                    anchor[1], 1, 1, "CON005",
                    f"seam {seam.name!r}: counterpart {rel} (holding "
                    f"{qualname}) is missing from the tree",
                )
            )
    if findings or left_parsed is None or right_parsed is None:
        return findings
    left_fn = _function_def(left_parsed[0], seam.left[1])
    right_fn = _function_def(right_parsed[0], seam.right[1])
    for fn, parsed, qualname in (
        (left_fn, left_parsed, seam.left[1]),
        (right_fn, right_parsed, seam.right[1]),
    ):
        if fn is None:
            findings.append(
                _finding(
                    parsed[1], 1, 1, "CON005",
                    f"seam {seam.name!r}: {qualname} not found at module "
                    "level",
                )
            )
    if findings or left_fn is None or right_fn is None:
        return findings
    left_params, right_params = _params(left_fn), _params(right_fn)
    if left_params[: len(right_params)] != right_params:
        findings.append(
            _finding(
                right_parsed[1], right_fn.lineno, 1, "CON005",
                f"seam {seam.name!r}: reference signature {right_params} is "
                f"not an ordered prefix of {left_params}",
            )
        )
    return findings


# -- CON006: wire-schema drift ----------------------------------------------


def _largest_dict_keys(fn: ast.FunctionDef) -> Optional[Tuple[Tuple[str, ...], int]]:
    best: Optional[Tuple[Tuple[str, ...], int]] = None
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            keys = tuple(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
            if keys and (best is None or len(keys) > len(best[0])):
                best = (keys, node.lineno)
    return best


def _subscript_keys(fn: ast.FunctionDef) -> Set[str]:
    return {
        node.slice.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def _check_dataclass_fields(
    tree: _Tree, rel: str, class_name: str, expected: Tuple[str, ...]
) -> List[Finding]:
    parsed = tree.parse(rel)
    if parsed is None:
        return []
    module, path = parsed
    cls = _class_def(module, class_name)
    if cls is None:
        return [
            _finding(
                path, 1, 1, "CON006",
                f"wire schema: class {class_name} not found in {rel}",
            )
        ]
    names = tuple(name for name, _, _ in _ann_fields(cls))
    if names != expected:
        return [
            _finding(
                path, cls.lineno, 1, "CON006",
                f"wire schema: {class_name} fields {names} != registered "
                f"{expected} (repro.contracts.wire)",
            )
        ]
    return []


def _check_codec_function(
    tree: _Tree,
    module: ast.Module,
    path: str,
    name: str,
    expected: Tuple[str, ...],
    *,
    ordered: bool,
) -> List[Finding]:
    fn = _function_def(module, name)
    if fn is None:
        return [
            _finding(
                path, 1, 1, "CON006",
                f"wire schema: codec function {name} not found",
            )
        ]
    built = _largest_dict_keys(fn)
    if built is None:
        return [
            _finding(
                path, fn.lineno, 1, "CON006",
                f"wire schema: {name} builds no literal-keyed dict to check",
            )
        ]
    keys, line = built
    matches = keys == expected if ordered else set(keys) == set(expected)
    if not matches:
        return [
            _finding(
                path, line, 1, "CON006",
                f"wire schema: {name} emits keys {keys} != registered "
                f"{expected} (repro.contracts.wire)",
            )
        ]
    return []


def _check_wire(tree: _Tree) -> List[Finding]:
    findings = _check_dataclass_fields(
        tree, "catalog/metadata.py", "Metadata", METADATA_RECORD_FIELDS
    )
    messages = tree.parse("net/messages.py")
    if messages is not None:
        for class_name, expected in sorted(MESSAGE_FIELDS.items()):
            findings.extend(
                _check_dataclass_fields(
                    tree, "net/messages.py", class_name, expected
                )
            )
    codec = tree.parse("runtime/codec.py")
    if codec is not None:
        module, path = codec
        findings.extend(
            _check_codec_function(
                tree, module, path, "encode_frame", FRAME_ENVELOPE_KEYS,
                ordered=True,
            )
        )
        findings.extend(
            _check_codec_function(
                tree, module, path, "metadata_to_fields",
                METADATA_RECORD_FIELDS, ordered=True,
            )
        )
        for builder, expected in sorted(FRAME_BODY_KEYS.items()):
            findings.extend(
                _check_codec_function(
                    tree, module, path, builder, expected, ordered=False
                )
            )
        reader = _function_def(module, "metadata_from_fields")
        if reader is None:
            findings.append(
                _finding(
                    path, 1, 1, "CON006",
                    "wire schema: codec function metadata_from_fields not "
                    "found",
                )
            )
        else:
            read = _subscript_keys(reader)
            if read != set(METADATA_RECORD_FIELDS):
                findings.append(
                    _finding(
                        path, reader.lineno, 1, "CON006",
                        "wire schema: metadata_from_fields reads keys "
                        f"{sorted(read)} != registered "
                        f"{sorted(METADATA_RECORD_FIELDS)}",
                    )
                )
    return findings


def project_findings(files: Sequence[Path]) -> List[Finding]:
    """Cross-file contract findings for every repro root under ``files``."""
    findings: List[Finding] = []
    for root in _repro_roots(files):
        tree = _Tree(root)
        findings.extend(_check_counter_surface(tree))
        findings.extend(_check_fingerprint_registry(tree))
        findings.extend(_check_knobs(tree))
        for seam in SEAM_REGISTRY:
            findings.extend(_seam_findings(tree, seam))
        findings.extend(_check_wire(tree))
    return sorted(findings)
