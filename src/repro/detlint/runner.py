"""File walking, aggregation and the ``repro lint`` command driver.

:func:`lint_paths` is the library entry point (used by the tests);
:func:`add_arguments` declares the command's flags and :func:`run`
executes them, for both ``repro lint`` and ``python -m repro.detlint``
(:func:`main`).

Exit codes
----------
``0``
    no findings (the tree honours the determinism contract);
``1``
    at least one finding (including unparseable files);
``2``
    usage error — a named path does not exist or matches no Python
    files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.detlint.checker import lint_source
from repro.detlint.findings import FORMATTERS, Finding
from repro.detlint.rules import format_rule_table

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".mypy_cache", ".ruff_cache"}

#: One-line description of the linter (``--help`` and ``repro --help``).
DESCRIPTION = "detlint: AST-based determinism & contract linter"

#: Default lint target when no path argument is given (relative to
#: the working directory; the repository's source tree).
DEFAULT_TARGET = "src/repro"


class LintReport(NamedTuple):
    """Aggregate outcome of one lint invocation."""

    findings: List[Finding]
    files_checked: int
    suppressions_matched: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files kept, dirs walked).

    Raises ``FileNotFoundError`` for a named path that does not exist.
    The listing is sorted so findings come out in a stable order.
    """
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.append(sub)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(set(out))


def lint_paths(
    paths: Sequence[str],
    *,
    all_rules: bool = False,
    contracts: bool = False,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``contracts=True`` additionally enables the CON contract-rule
    family: the per-file rules inside :func:`lint_source`, plus the
    project-level drift checks (knob registry, seam parity) run once
    per discovered ``repro`` package root.
    """
    findings: List[Finding] = []
    suppressed = 0
    files = iter_python_files(paths)
    for path in files:
        source = path.read_text(encoding="utf-8")
        posix = path.as_posix()
        file_findings = lint_source(
            source, posix, all_rules=all_rules, contracts=contracts
        )
        findings.extend(file_findings)
        # Count matched suppressions for the summary line: a second,
        # suppression-free pass would re-run the visitor, so instead
        # diff against the unsuppressed finding count.
        raw = lint_source(
            source, posix, all_rules=all_rules,
            suppressions=False, contracts=contracts,
        )
        suppressed += len(raw) - len(file_findings)
    if contracts:
        for finding, was_suppressed in _project_contract_findings(files):
            if was_suppressed:
                suppressed += 1
            else:
                findings.append(finding)
    return LintReport(
        findings=sorted(findings),
        files_checked=len(files),
        suppressions_matched=suppressed,
    )


def _project_contract_findings(
    files: Sequence[Path],
) -> Iterator[Tuple[Finding, bool]]:
    """Project-level CON findings, suppression-filtered.

    Cross-file findings anchor at a concrete file/line (the drifted
    assignment, the undocumented config field), so the ordinary
    ``# detlint: ignore[...]`` comment machinery applies — the anchor
    file's suppression map decides.
    """
    from repro.contracts.checks import project_findings
    from repro.detlint.suppressions import SuppressionMap

    maps: Dict[str, Optional[SuppressionMap]] = {}
    for finding in project_findings(files):
        if finding.path not in maps:
            try:
                source = Path(finding.path).read_text(encoding="utf-8")
                maps[finding.path] = SuppressionMap(source)
            except OSError:
                maps[finding.path] = None
        smap = maps[finding.path]
        yield finding, bool(smap and smap.suppresses(finding.line, finding.rule))


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the linter's flags on ``parser`` (also ``repro lint``'s)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATTERS),
        default="text",
        help="finding output format (github emits PR line annotations)",
    )
    parser.add_argument(
        "--no-scope",
        action="store_true",
        help="apply every rule to every file, ignoring path scoping",
    )
    parser.add_argument(
        "--contracts",
        action="store_true",
        help=(
            "additionally enforce the cross-layer contract rules "
            "(counter and knob registries, import layering, seam parity)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule reference table and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings only)",
    )
    return parser


def main(
    argv: Optional[Sequence[str]] = None,
    *,
    prog: str = "repro lint",
    stream: Optional[TextIO] = None,
) -> int:
    """Parse ``argv`` and run the linter; returns the process exit code."""
    parser = argparse.ArgumentParser(prog=prog, description=DESCRIPTION)
    return run(add_arguments(parser).parse_args(argv), prog=prog, stream=stream)


def run(
    args: argparse.Namespace,
    *,
    prog: str = "repro lint",
    stream: Optional[TextIO] = None,
) -> int:
    """Run the linter on parsed :func:`add_arguments` flags."""
    stream = stream if stream is not None else sys.stdout
    if args.list_rules:
        print(format_rule_table(), file=stream)
        return 0
    paths = list(args.paths)
    if not paths:
        if not os.path.isdir(DEFAULT_TARGET):
            print(
                f"{prog}: no paths given and default target "
                f"{DEFAULT_TARGET!r} not found",
                file=sys.stderr,
            )
            return 2
        paths = [DEFAULT_TARGET]
    try:
        report = lint_paths(
            paths, all_rules=args.no_scope, contracts=args.contracts
        )
    except FileNotFoundError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2
    if report.files_checked == 0:
        print(f"{prog}: no Python files under {paths}", file=sys.stderr)
        return 2
    rendered = FORMATTERS[args.format](report.findings)
    if rendered:
        print(rendered, file=stream)
    if not args.quiet and args.format == "text":
        summary = (
            f"{len(report.findings)} finding(s) in "
            f"{report.files_checked} file(s)"
        )
        if report.suppressions_matched:
            summary += f", {report.suppressions_matched} suppressed"
        print(summary, file=stream)
    return report.exit_code
