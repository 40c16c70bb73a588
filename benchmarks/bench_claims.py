"""The paper's claims, panel by panel (§VI-B and §V).

Each parametrized test runs one figure panel through the kernel under
``pytest-benchmark``, prints the series the paper plots and asserts
every row of :data:`repro.experiments.validation.CLAIMS` that reads that
panel (the row ids are listed in EXPERIMENTS.md). A last test checks the
trace-free §V capacity row.
"""

from __future__ import annotations

import pytest

from repro.experiments import FIGURES
from repro.experiments.validation import PANELS, check_panel, format_report

from conftest import run_panel


def assert_all_pass(claims) -> None:
    failed = [claim for claim in claims if not claim.passed]
    if failed:
        print(format_report(failed))
    assert not failed, [claim.claim_id for claim in failed]


@pytest.mark.parametrize("panel", PANELS)
def test_panel_claims(benchmark, panel):
    result = run_panel(benchmark, FIGURES[panel])
    assert_all_pass(check_panel(panel, result))


def test_capacity_claim(benchmark):
    assert_all_pass(benchmark(check_panel, None, None))
