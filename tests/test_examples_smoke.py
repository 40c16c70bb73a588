"""Smoke tests: the shipped examples must run to completion.

Only the fast examples run here (the figure sweeps run through
``repro sweep``, tested in ``test_cli_report.py``, and the claims table
in ``benchmarks/bench_claims.py``); each is executed in-process with
stdout captured.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES / name
    assert path.exists(), path
    old_argv = sys.argv
    sys.argv = [str(path), *(argv or [])]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "mbt-qm" in out

    def test_wire_protocol_demo(self, capsys):
        run_example("wire_protocol_demo.py")
        out = capsys.readouterr().out
        assert "delivered=True" in out
        assert "PIECE" in out
