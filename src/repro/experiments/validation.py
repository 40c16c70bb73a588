"""The paper's qualitative claims as one table of rows.

The reproduction target is qualitative (§VI-B and §V): the protocol
ordering MBT ≥ MBT-Q ≥ MBT-QM, the direction in which each Fig. 2/3
panel's curves move, the Fig. 2(d) small-budget exception, the
Fig. 3(a) "discovery doubles delivery" headline and the broadcast vs
pair-wise capacity claim. Absolute values differ from the paper — the
traces are synthetic rebuilds — so the checks allow single-seed noise
(:data:`ORDER_TOLERANCE` per point).

:data:`CLAIMS` holds one :class:`ClaimRow` per assertion. A row names
the panel of :data:`~repro.experiments.figures.FIGURES` it reads
(``None`` for the trace-free capacity row) and a check built from the
predicates below. :func:`validate_reproduction` runs each panel once and
evaluates every row (``python -m repro validate``);
``benchmarks/bench_claims.py`` evaluates the same rows panel by panel
under pytest-benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.capacity import CapacityPoint, capacity_table
from repro.experiments.figures import FIGURES
from repro.experiments.sweep import SweepResult
from repro.experiments.workloads import Scale

#: Tolerance of the ordering and trend predicates: a single-seed cell
#: can wobble a few percent, which is noise, not a shape change.
ORDER_TOLERANCE = 0.06
#: Fig. 3(a): at the second-highest access fraction, MBT's file
#: delivery is at least this multiple of MBT-QM's (the paper reports a
#: doubling at 80%).
DISCOVERY_GAIN = 1.8
#: Clique sizes of the §V capacity row.
CAPACITY_SIZES = tuple(range(2, 33))

ALL = ("mbt", "mbt-q", "mbt-qm")
#: The protocols with a file-discovery (metadata) phase.
DISCOVERY = ("mbt", "mbt-q")

#: A row's check: the panel's :class:`SweepResult` (``None`` for the
#: capacity row) -> (passed, detail).
Check = Callable[[Any], Tuple[bool, str]]


@dataclass(frozen=True)
class Claim:
    """One validated statement from the paper."""

    claim_id: str
    description: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ClaimRow:
    """One paper claim: where it is read from and how it is checked."""

    claim_id: str
    panel: Optional[str]
    description: str
    check: Check

    def evaluate(self, result: Optional[SweepResult]) -> Claim:
        passed, detail = self.check(result)
        return Claim(self.claim_id, self.description, passed, detail)


def _series(result: SweepResult, metric: str, protocol: str) -> Tuple[float, ...]:
    """``metric`` is ``"metadata"`` or ``"file"``."""
    return getattr(result, f"{metric}_series")(protocol)


def _fmt(series: Sequence[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in series) + "]"


def dominates(
    metric: str, *pairs: Tuple[str, str], upper_half: bool = False
) -> Check:
    """For each ``(better, worse)`` pair: ``better`` dominates up to noise.

    Every point must satisfy better >= worse − tolerance, and the
    series sums must be ordered. ``upper_half`` keeps only the points
    from ``len(x_values) // 2`` on, away from the small-budget
    exception of Fig. 2(d)/3(d).
    """

    def check(result: SweepResult) -> Tuple[bool, str]:
        start = len(result.x_values) // 2 if upper_half else 0
        passed = True
        parts: List[str] = []
        for better, worse in pairs:
            b = _series(result, metric, better)[start:]
            w = _series(result, metric, worse)[start:]
            ok = all(x >= y - ORDER_TOLERANCE for x, y in zip(b, w)) and sum(b) >= sum(w)
            passed = passed and ok
            relation = ">=" if ok else "NOT >="
            parts.append(f"{better} {_fmt(b)} {relation} {worse} {_fmt(w)}")
        return passed, "; ".join(parts)

    return check


def _trend(
    metric: str, protocols: Sequence[str], holds: Callable[[Sequence[float]], bool]
) -> Check:
    def check(result: SweepResult) -> Tuple[bool, str]:
        passed = True
        parts: List[str] = []
        for protocol in protocols:
            series = _series(result, metric, protocol)
            ok = holds(series)
            passed = passed and ok
            parts.append(f"{protocol} {_fmt(series)}{'' if ok else ' (fails)'}")
        return passed, "; ".join(parts)

    return check


def rises(metric: str, protocols: Sequence[str] = ALL) -> Check:
    """Each series rises overall: last >= first − tolerance."""
    return _trend(metric, protocols, lambda s: s[-1] >= s[0] - ORDER_TOLERANCE)


def falls(metric: str, protocols: Sequence[str] = ALL) -> Check:
    """Each series falls overall: last <= first + tolerance."""
    return _trend(metric, protocols, lambda s: s[-1] <= s[0] + ORDER_TOLERANCE)


def qm_flat(result: SweepResult) -> Tuple[bool, str]:
    """MBT-QM's file delivery rises by less than half of MBT's rise."""
    qm = result.file_series("mbt-qm")
    mbt = result.file_series("mbt")
    qm_rise = qm[-1] - qm[0]
    mbt_rise = mbt[-1] - mbt[0]
    return qm_rise < mbt_rise / 2, f"QM rise {qm_rise:.3f} vs MBT rise {mbt_rise:.3f}"


def discovery_doubles(result: SweepResult) -> Tuple[bool, str]:
    """At the second-highest x, MBT file delivery >= 1.8 × a non-zero MBT-QM's."""
    index = len(result.x_values) - 2
    mbt = result.file_series("mbt")[index]
    qm = result.file_series("mbt-qm")[index]
    return (
        qm > 0 and mbt >= DISCOVERY_GAIN * qm,
        f"MBT {mbt:.3f} vs MBT-QM {qm:.3f} at x = {result.x_values[index]:g}",
    )


def capacity_holds(table: Sequence[CapacityPoint]) -> Tuple[bool, str]:
    """§V on a table that starts at n = 2: broadcast rises, pair-wise falls.

    The two coincide at n = 2 only, broadcast is strictly ahead beyond
    it, and the gain at the largest n is exactly n − 1.
    """
    broadcast = [p.broadcast for p in table]
    pairwise = [p.pairwise for p in table]
    last = table[-1]
    passed = (
        broadcast == sorted(broadcast)
        and pairwise == sorted(pairwise, reverse=True)
        and broadcast[0] == pairwise[0]
        and all(b > p for b, p in zip(broadcast[1:], pairwise[1:]))
        and last.gain == last.clique_size - 1
    )
    detail = (
        f"n = {table[0].clique_size}..{last.clique_size}: broadcast "
        f"{broadcast[0]:.3f} -> {broadcast[-1]:.3f}, pair-wise "
        f"{pairwise[0]:.3f} -> {pairwise[-1]:.3f}, gain at n = "
        f"{last.clique_size} {last.gain:g}"
    )
    return passed, detail


CLAIMS: Tuple[ClaimRow, ...] = (
    # Fig. 2 — DieselNet.
    ClaimRow("fig2a-metadata-rises", "fig2a",
             "metadata delivery rises with the Internet-access fraction (Fig. 2(a))",
             rises("metadata")),
    ClaimRow("fig2a-file-rises", "fig2a",
             "file delivery rises with the Internet-access fraction (Fig. 2(a))",
             rises("file")),
    ClaimRow("fig2a-metadata-order", "fig2a",
             "MBT >= MBT-Q >= MBT-QM on metadata delivery (Fig. 2(a))",
             dominates("metadata", ("mbt", "mbt-q"), ("mbt-q", "mbt-qm"))),
    ClaimRow("fig2a-file-order", "fig2a",
             "MBT >= MBT-Q >= MBT-QM on file delivery (Fig. 2(a))",
             dominates("file", ("mbt", "mbt-q"), ("mbt-q", "mbt-qm"))),
    ClaimRow("fig2b-file-falls", "fig2b",
             "file delivery falls as new files per day grow (Fig. 2(b))",
             falls("file")),
    ClaimRow("fig2b-metadata-order", "fig2b",
             "MBT >= MBT-QM on metadata delivery (Fig. 2(b))",
             dominates("metadata", ("mbt", "mbt-qm"))),
    ClaimRow("fig2b-file-order", "fig2b",
             "MBT >= MBT-QM on file delivery (Fig. 2(b))",
             dominates("file", ("mbt", "mbt-qm"))),
    ClaimRow("fig2c-metadata-rises", "fig2c",
             "metadata delivery rises with file TTL (Fig. 2(c))",
             rises("metadata")),
    ClaimRow("fig2c-file-rises", "fig2c",
             "file delivery rises with file TTL (Fig. 2(c))",
             rises("file")),
    ClaimRow("fig2c-metadata-order", "fig2c",
             "MBT >= MBT-QM on metadata delivery (Fig. 2(c))",
             dominates("metadata", ("mbt", "mbt-qm"))),
    ClaimRow("fig2c-file-order", "fig2c",
             "MBT >= MBT-QM on file delivery (Fig. 2(c))",
             dominates("file", ("mbt", "mbt-qm"))),
    ClaimRow("fig2d-metadata-rises", "fig2d",
             "MBT and MBT-Q metadata delivery rises with the metadata budget "
             "(Fig. 2(d))",
             rises("metadata", DISCOVERY)),
    ClaimRow("fig2d-metadata-order-upper", "fig2d",
             "MBT >= MBT-QM on metadata delivery away from the small-budget "
             "exception (Fig. 2(d), upper half)",
             dominates("metadata", ("mbt", "mbt-qm"), upper_half=True)),
    ClaimRow("fig2d-file-order-upper", "fig2d",
             "MBT >= MBT-QM on file delivery away from the small-budget "
             "exception (Fig. 2(d), upper half)",
             dominates("file", ("mbt", "mbt-qm"), upper_half=True)),
    ClaimRow("fig2e-file-rises", "fig2e",
             "file delivery rises with the file budget (Fig. 2(e))",
             rises("file")),
    ClaimRow("fig2e-file-order", "fig2e",
             "MBT and MBT-Q >= MBT-QM on file delivery (Fig. 2(e))",
             dominates("file", ("mbt", "mbt-qm"), ("mbt-q", "mbt-qm"))),
    # Fig. 3 — NUS.
    ClaimRow("fig3a-metadata-rises", "fig3a",
             "MBT and MBT-Q metadata delivery rises with the Internet-access "
             "fraction (Fig. 3(a))",
             rises("metadata", DISCOVERY)),
    ClaimRow("fig3a-file-rises", "fig3a",
             "MBT and MBT-Q file delivery rises with the Internet-access "
             "fraction (Fig. 3(a))",
             rises("file", DISCOVERY)),
    ClaimRow("fig3a-qm-flat", "fig3a",
             "MBT-QM shows no access-fraction increase, lacking discovery "
             "(Fig. 3(a))",
             qm_flat),
    ClaimRow("fig3a-file-order", "fig3a",
             "MBT and MBT-Q >= MBT-QM on file delivery (Fig. 3(a))",
             dominates("file", ("mbt", "mbt-qm"), ("mbt-q", "mbt-qm"))),
    ClaimRow("fig3a-discovery-doubles", "fig3a",
             "with ~80% access nodes, file delivery at least doubles with "
             "discovery (Fig. 3(a))",
             discovery_doubles),
    ClaimRow("fig3b-file-falls", "fig3b",
             "file delivery falls as new files per day grow (Fig. 3(b))",
             falls("file")),
    ClaimRow("fig3b-metadata-order", "fig3b",
             "MBT >= MBT-QM on metadata delivery (Fig. 3(b))",
             dominates("metadata", ("mbt", "mbt-qm"))),
    ClaimRow("fig3b-file-order", "fig3b",
             "MBT >= MBT-QM on file delivery (Fig. 3(b))",
             dominates("file", ("mbt", "mbt-qm"))),
    ClaimRow("fig3c-file-rises", "fig3c",
             "file delivery rises with file TTL (Fig. 3(c))",
             rises("file")),
    ClaimRow("fig3c-metadata-order", "fig3c",
             "MBT >= MBT-QM on metadata delivery (Fig. 3(c))",
             dominates("metadata", ("mbt", "mbt-qm"))),
    ClaimRow("fig3c-file-order", "fig3c",
             "MBT >= MBT-QM on file delivery (Fig. 3(c))",
             dominates("file", ("mbt", "mbt-qm"))),
    ClaimRow("fig3d-metadata-rises", "fig3d",
             "MBT and MBT-Q metadata delivery rises with the metadata budget "
             "(Fig. 3(d))",
             rises("metadata", DISCOVERY)),
    ClaimRow("fig3d-metadata-order-upper", "fig3d",
             "MBT >= MBT-QM on metadata delivery away from the small-budget "
             "exception (Fig. 3(d), upper half)",
             dominates("metadata", ("mbt", "mbt-qm"), upper_half=True)),
    ClaimRow("fig3d-file-order-upper", "fig3d",
             "MBT >= MBT-QM on file delivery away from the small-budget "
             "exception (Fig. 3(d), upper half)",
             dominates("file", ("mbt", "mbt-qm"), upper_half=True)),
    ClaimRow("fig3e-file-rises", "fig3e",
             "file delivery rises with the file budget (Fig. 3(e))",
             rises("file")),
    ClaimRow("fig3e-file-order", "fig3e",
             "MBT >= MBT-QM on file delivery (Fig. 3(e))",
             dominates("file", ("mbt", "mbt-qm"))),
    ClaimRow("fig3f-metadata-rises", "fig3f",
             "MBT and MBT-Q metadata delivery rises with class attendance "
             "(Fig. 3(f))",
             rises("metadata", DISCOVERY)),
    ClaimRow("fig3f-file-rises", "fig3f",
             "MBT and MBT-Q file delivery rises with class attendance "
             "(Fig. 3(f))",
             rises("file", DISCOVERY)),
    ClaimRow("fig3f-file-order", "fig3f",
             "MBT >= MBT-QM on file delivery (Fig. 3(f))",
             dominates("file", ("mbt", "mbt-qm"))),
    # §V — analytic, no panel.
    ClaimRow("capacity", None,
             "broadcast per-node capacity (n-1)/n rises with density, "
             "pair-wise 1/n falls; gain n-1 (§V)",
             lambda _result: capacity_holds(capacity_table(CAPACITY_SIZES))),
)

#: The :data:`~repro.experiments.figures.FIGURES` keys that rows read.
PANELS = tuple(sorted({row.panel for row in CLAIMS if row.panel is not None}))


def check_panel(panel: Optional[str], result: Optional[SweepResult]) -> List[Claim]:
    """Evaluate every row of ``panel`` (``None``: the capacity row)."""
    return [row.evaluate(result) for row in CLAIMS if row.panel == panel]


def validate_reproduction(
    scale: Scale = "fast", seeds: Sequence[int] = (0,)
) -> List[Claim]:
    """Run each panel of :data:`CLAIMS` once; one :class:`Claim` per row."""
    results = {panel: FIGURES[panel](scale=scale, seeds=tuple(seeds)) for panel in PANELS}
    return [
        row.evaluate(results[row.panel] if row.panel is not None else None)
        for row in CLAIMS
    ]


def format_report(claims: Sequence[Claim]) -> str:
    """Render the checklist as text."""
    lines = ["Reproduction validation report", "=" * 34]
    for claim in claims:
        mark = "PASS" if claim.passed else "FAIL"
        lines.append(f"[{mark}] {claim.claim_id}: {claim.description}")
        lines.append(f"       {claim.detail}")
    passed = sum(1 for c in claims if c.passed)
    lines.append(f"{passed}/{len(claims)} claims reproduced")
    return "\n".join(lines)
