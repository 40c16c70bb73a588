"""Every claim of the reproduction, panel by panel.

Each parametrized test runs one panel of the claims table: a Fig. 2/3
sweep (§VI-B) through the kernel, or an extension panel
(:mod:`repro.experiments.ablations`, ``figloss``, ``figrobust``). It
prints the panel's series and asserts every row of
:data:`repro.experiments.validation.CLAIMS` that reads it (the row ids
are listed in EXPERIMENTS.md). A last test checks the trace-free §V
capacity row.
"""

from __future__ import annotations

import pytest

from repro.experiments.validation import PANELS, check_panel, format_report

from conftest import bench_panel


def assert_all_pass(claims) -> None:
    failed = [claim for claim in claims if not claim.passed]
    if failed:
        print(format_report(failed))
    assert not failed, [claim.claim_id for claim in failed]


@pytest.mark.parametrize("panel", PANELS)
def test_panel_claims(panel):
    assert_all_pass(check_panel(panel, bench_panel(panel)))


def test_capacity_claim():
    assert_all_pass(check_panel(None, None))
