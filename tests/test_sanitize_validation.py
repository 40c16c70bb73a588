"""Tests for the validation harness (the paper-claims table)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.capacity import CapacityPoint, capacity_table
from repro.experiments.sweep import SweepPoint, SweepResult
from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES
from repro.experiments.validation import (
    CAPACITY_SIZES,
    CLAIMS,
    EXTENSION_PANELS,
    PANELS,
    Claim,
    ClaimRow,
    at_least,
    capacity_holds,
    check_panel,
    discovery_doubles,
    discovery_unaffected,
    dominates,
    falls,
    falls_every_step,
    format_report,
    gap_below,
    qm_flat,
    ratio_at_least,
    riders_cost_delivery,
    rises,
)


class TestValidationReport:
    def test_format_report_lists_claims(self):
        claims = [
            Claim("a", "first claim", True, "d1"),
            Claim("b", "second claim", False, "d2"),
        ]
        text = format_report(claims)
        assert "[PASS] a" in text
        assert "[FAIL] b" in text
        assert "1/2 claims reproduced" in text


# ------------------------------------------------------ paper-claims table


def panel(series: dict) -> SweepResult:
    """A hand-built sweep whose metadata and file series are both ``series``.

    The x values are 0, 1, 2, ...
    """
    x_values = tuple(float(x) for x in range(len(next(iter(series.values())))))
    points = tuple(
        SweepPoint(x, {p: (s[i], s[i]) for p, s in series.items()})
        for i, x in enumerate(x_values)
    )
    return SweepResult("hand-built", "x", x_values, points, tuple(series))


def pair(a: float, b: float) -> SweepResult:
    """One point (x = 0) with series ``a`` and ``b``."""
    return panel({"a": (a,), "b": (b,)})


UP = (0.1, 0.2, 0.3, 0.4, 0.5)
TABLE = capacity_table(CAPACITY_SIZES)
QM = (0.5, 0.5, 0.6, 0.5, 0.5)

#: Each predicate kind: (check, data that satisfies it, data that violates
#: it). The pairs sit on either side of the 0.06 tolerance where one applies.
PREDICATE_CASES = {
    "dominates": (
        dominates("file", ("mbt", "mbt-qm")),
        panel({"mbt": (0.6, 0.6, 0.55, 0.6, 0.6), "mbt-qm": QM}),
        panel({"mbt": (0.6, 0.6, 0.5, 0.6, 0.6), "mbt-qm": QM}),
    ),
    "dominates-sum": (
        dominates("metadata", ("mbt", "mbt-qm")),
        panel({"mbt": (0.15,) * 5, "mbt-qm": (0.15,) * 5}),
        panel({"mbt": (0.1,) * 5, "mbt-qm": (0.15,) * 5}),
    ),
    "upper-half-dominates": (
        dominates("file", ("mbt", "mbt-qm"), upper_half=True),
        panel({"mbt": (0.0, 0.0, 0.5, 0.5, 0.5), "mbt-qm": (0.4,) * 5}),
        panel({"mbt": (0.5, 0.5, 0.5, 0.5, 0.0), "mbt-qm": (0.4,) * 5}),
    ),
    "rises": (
        rises("file", ("mbt",)),
        panel({"mbt": (0.5, 0.6, 0.7, 0.6, 0.45)}),
        panel({"mbt": (0.5, 0.6, 0.7, 0.6, 0.4)}),
    ),
    "falls": (
        falls("file", ("mbt",)),
        panel({"mbt": (0.5, 0.4, 0.3, 0.4, 0.55)}),
        panel({"mbt": (0.5, 0.4, 0.3, 0.4, 0.6)}),
    ),
    "qm-flat": (
        qm_flat,
        panel({"mbt": UP, "mbt-qm": (0.1, 0.1, 0.1, 0.1, 0.25)}),
        panel({"mbt": UP, "mbt-qm": (0.1, 0.1, 0.1, 0.1, 0.35)}),
    ),
    "ratio": (
        discovery_doubles,
        panel({"mbt": (0.1, 0.2, 0.3, 0.5, 0.6), "mbt-qm": (0.27,) * 5}),
        panel({"mbt": (0.1, 0.2, 0.3, 0.5, 0.6), "mbt-qm": (0.29,) * 5}),
    ),
    "ratio-zero": (
        discovery_doubles,
        panel({"mbt": (0.1, 0.2, 0.3, 0.5, 0.6), "mbt-qm": (0.01,) * 5}),
        panel({"mbt": (0.1, 0.2, 0.3, 0.5, 0.6), "mbt-qm": (0.0,) * 5}),
    ),
    "capacity-gain": (
        capacity_holds,
        TABLE,
        [CapacityPoint(2, 0.5, 0.5), CapacityPoint(3, 0.7, 0.3)],  # gain != n - 1
    ),
    "capacity-gain-every-n": (
        capacity_holds,
        TABLE,
        # Still ordered, but broadcast / pair-wise is 5.94 at n = 7.
        [*TABLE[:5], replace(TABLE[5], pairwise=TABLE[5].pairwise * 1.01), *TABLE[6:]],
    ),
    "capacity-crossover": (
        capacity_holds, TABLE, [replace(TABLE[0], pairwise=0.4), *TABLE[1:]]
    ),
    "capacity-broadcast-rises": (
        capacity_holds, TABLE, [*TABLE[:5], replace(TABLE[5], broadcast=0.5), *TABLE[6:]]
    ),
    "capacity-pairwise-falls": (
        capacity_holds, TABLE, [*TABLE[:5], replace(TABLE[5], pairwise=0.18), *TABLE[6:]]
    ),
    "at-least-at": (
        at_least("file", ("a", "b"), tolerance=0.0, at=(1,)),
        panel({"a": (0.0, 0.5, 0.0), "b": (0.4,) * 3}),
        panel({"a": (0.5, 0.0, 0.5), "b": (0.4,) * 3}),
    ),
    "falls-every-step-0": (
        falls_every_step("file", ("a",), tolerance=0.0),
        panel({"a": (0.701, 0.690, 0.593, 0.464)}),
        panel({"a": (0.810, 0.756, 0.695, 0.722)}),
    ),
    "riders-cost-delivery": (
        riders_cost_delivery,
        panel({"coordinator": (0.8, 0.7, 0.3, 0.79)}),
        panel({"coordinator": (0.8, 0.7, 0.3, 0.8)}),
    ),
    "discovery-unaffected": (
        discovery_unaffected,
        panel({"mbt": (0.8, 0.5, 0.895)}),
        panel({"mbt": (0.8, 0.8, 0.905)}),
    ),
    # The slack each extension row names, on either side of it.
    **{
        f"at-least-{t:g}": (
            at_least("file", ("a", "b"), tolerance=t),
            pair(0.5 - t + 0.005, 0.5),
            pair(0.5 - t - 0.005, 0.5),
        )
        for t in (0.0, 0.02, 0.03, 0.05, 0.10)
    },
    **{
        f"rises-{t:g}": (
            rises("file", ("a",), tolerance=t),
            panel({"a": (0.5, 0.9, 0.5 - t + 0.005)}),
            panel({"a": (0.5, 0.9, 0.5 - t - 0.005)}),
        )
        for t in (0.05, 0.10)
    },
    "falls-0.02": (
        falls("file", ("a",), tolerance=0.02),
        panel({"a": (0.5, 0.1, 0.515)}),
        panel({"a": (0.5, 0.1, 0.525)}),
    ),
    **{
        f"gap-below-{bound:g}": (
            gap_below("file", ("a", "b"), bound=bound),
            pair(0.5 + bound - 0.005, 0.5),
            pair(0.5 + bound + 0.005, 0.5),
        )
        for bound in (0.15, 0.06, 0.0, -0.02, -0.05)
    },
    "gap-below-equal": (gap_below("file", ("a", "b"), bound=0.0), pair(0.4, 0.5), pair(0.5, 0.5)),
    **{
        f"ratio-at-least-{k:g}": (
            ratio_at_least("file", "a", "b", k, at=0),
            pair(k * 0.4 + 0.005, 0.4),
            pair(k * 0.4 - 0.005, 0.4),
        )
        for k in (0.4, 1.2, 1.5)
    },
    "ratio-at-least-zero-base": (
        ratio_at_least("file", "a", "b", 1.2, at=0), pair(0.5, 0.01), pair(0.5, 0.0)
    ),
}


class TestClaimsTable:
    def test_ids_unique_and_every_panel_has_a_row(self):
        ids = [row.claim_id for row in CLAIMS]
        assert len(ids) == len(set(ids))
        registered = set(FIGURES) | set(ABLATIONS)
        # Every registered panel has a row, and every row's panel is registered.
        assert set(PANELS) == registered
        figures = {f"fig2{c}" for c in "abcde"} | {f"fig3{c}" for c in "abcdef"}
        assert set(EXTENSION_PANELS) == registered - figures
        assert [row.claim_id for row in CLAIMS if row.panel is None] == ["capacity"]

    @pytest.mark.parametrize("kind", sorted(PREDICATE_CASES))
    def test_predicate(self, kind):
        check, satisfying, violating = PREDICATE_CASES[kind]
        row = ClaimRow(kind, None, "hand-built", check)
        assert row.evaluate(satisfying).passed
        claim = row.evaluate(violating)
        assert not claim.passed
        assert claim.claim_id == kind and claim.detail

    def test_upper_half_ignores_the_lower_half(self):
        __, satisfying, __ = PREDICATE_CASES["upper-half-dominates"]
        passed, __ = dominates("file", ("mbt", "mbt-qm"))(satisfying)
        assert not passed

    def test_at_least_compares_points_not_sums(self):
        within_slack = pair(0.45, 0.5)
        assert at_least("file", ("a", "b"))(within_slack)[0]
        assert not dominates("file", ("a", "b"))(within_slack)[0]

    def test_capacity_row_passes(self):
        (claim,) = check_panel(None, None)
        assert claim.claim_id == "capacity"
        assert claim.passed, claim.detail

