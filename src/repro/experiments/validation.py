"""Every claim of the reproduction as one table of rows.

The reproduction target is qualitative (§VI-B and §V): the protocol
ordering MBT ≥ MBT-Q ≥ MBT-QM, the direction in which each Fig. 2/3
panel's curves move, the Fig. 2(d) small-budget exception, the
Fig. 3(a) "discovery doubles delivery" headline and the broadcast vs
pair-wise capacity claim. Absolute values differ from the paper — the
traces are synthetic rebuilds — so the checks allow single-seed noise
(:data:`ORDER_TOLERANCE` per point, unless a row names its own slack).

The claims beyond the figures read the extension panels of
:data:`EXTENSION_PANELS`: the §IV-B credits and choking, §III-B
pollution and piece size, §V budgets and end-to-end broadcast, the
§II-C podcast baseline, the wire runtime, the mobility models, the
space-time bound (:mod:`repro.experiments.ablations`) and the
``figloss``/``figrobust`` robustness panels. Their setup is fixed:
``scale`` and ``seeds`` vary only the Fig. 2/3 panels, and each row's
description names its setup.

:data:`CLAIMS` holds one :class:`ClaimRow` per assertion. A row names
the panel it reads (``None`` for the trace-free capacity row) and a
check built from the predicates below. :func:`validate_reproduction`
runs each panel once and evaluates every row (``python -m repro
validate``); ``benchmarks/bench_claims.py`` evaluates the same rows
panel by panel under pytest-benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.capacity import CapacityPoint, capacity_gain, capacity_table
from repro.core.node import EVICTION_POLICIES
from repro.experiments.ablations import ABLATIONS, STORE_CAPACITIES, UNBOUNDED
from repro.experiments.figures import ADVERSARY_FRACTIONS, FIGURES, figloss, figrobust
from repro.experiments.sweep import SweepResult
from repro.experiments.workloads import Scale

#: Default tolerance of the ordering and trend predicates: a
#: single-seed cell can wobble a few percent, which is noise, not a
#: shape change.
ORDER_TOLERANCE = 0.06
#: Fig. 3(a): at the second-highest access fraction, MBT's file
#: delivery is at least this multiple of MBT-QM's (the paper reports a
#: doubling at 80%).
DISCOVERY_GAIN = 1.8
#: Largest delivery gap allowed between the wire runtime and the simulator.
RUNTIME_TOLERANCE = 0.06
#: Clique sizes of the §V capacity row.
CAPACITY_SIZES = tuple(range(2, 33))

ALL = ("mbt", "mbt-q", "mbt-qm")
#: The protocols with a file-discovery (metadata) phase.
DISCOVERY = ("mbt", "mbt-q")

#: Panels with a fixed setup, each called with ``jobs`` only. figrobust
#: keeps seed 1: at fast scale its adversary count moves in steps of
#: three buses, and seed 0 draws a non-monotone assignment.
EXTENSION_PANELS: Dict[str, Callable[..., SweepResult]] = {
    "figloss": partial(figloss, scale="fast", seeds=(0,)),
    "figrobust": partial(figrobust, scale="fast", seeds=(1,)),
    **ABLATIONS,
}

#: A row's check: the panel's :class:`SweepResult` (``None`` for the
#: capacity row) -> (passed, detail).
Check = Callable[[Any], Tuple[bool, str]]
#: The x values a predicate reads (``None``: every point).
At = Optional[Sequence[float]]


@dataclass(frozen=True)
class Claim:
    """One validated statement."""

    claim_id: str
    description: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ClaimRow:
    """One claim: where it is read from and how it is checked."""

    claim_id: str
    panel: Optional[str]
    description: str
    check: Check

    def evaluate(self, result: Optional[SweepResult]) -> Claim:
        passed, detail = self.check(result)
        return Claim(self.claim_id, self.description, passed, detail)


def _series(
    result: SweepResult, metric: str, protocol: str, at: At = None
) -> Tuple[float, ...]:
    """``metric`` is ``"metadata"`` or ``"file"``; ``at`` picks x values."""
    values = getattr(result, f"{metric}_series")(protocol)
    if at is None:
        return values
    return tuple(values[result.x_values.index(float(x))] for x in at)


def _fmt(series: Sequence[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in series) + "]"


def _compare(
    metric: str,
    pairs: Sequence[Tuple[str, str]],
    tolerance: float,
    at: At,
    upper_half: bool,
    sums: bool,
) -> Check:
    def check(result: SweepResult) -> Tuple[bool, str]:
        start = len(result.x_values) // 2 if upper_half else 0
        passed = True
        parts: List[str] = []
        for better, worse in pairs:
            b = _series(result, metric, better, at)[start:]
            w = _series(result, metric, worse, at)[start:]
            ok = all(x >= y - tolerance for x, y in zip(b, w))
            ok = ok and (not sums or sum(b) >= sum(w))
            passed = passed and ok
            relation = ">=" if ok else "NOT >="
            parts.append(f"{better} {_fmt(b)} {relation} {worse} {_fmt(w)}")
        return passed, "; ".join(parts)

    return check


def dominates(
    metric: str,
    *pairs: Tuple[str, str],
    tolerance: float = ORDER_TOLERANCE,
    upper_half: bool = False,
) -> Check:
    """For each ``(better, worse)`` pair: ``better`` dominates up to noise.

    Every point must satisfy better >= worse − tolerance, and the
    series sums must be ordered. ``upper_half`` keeps only the points
    from ``len(x_values) // 2`` on, away from the small-budget
    exception of Fig. 2(d)/3(d).
    """
    return _compare(metric, pairs, tolerance, None, upper_half, sums=True)


def at_least(
    metric: str,
    *pairs: Tuple[str, str],
    tolerance: float = ORDER_TOLERANCE,
    at: At = None,
) -> Check:
    """For each ``(better, worse)`` pair: better >= worse − tolerance at every point.

    Unlike :func:`dominates`, the sums are not compared, so the
    tolerance holds at each point on its own.
    """
    return _compare(metric, pairs, tolerance, at, upper_half=False, sums=False)


def _trend(
    metric: str,
    protocols: Sequence[str],
    at: At,
    holds: Callable[[Sequence[float]], bool],
) -> Check:
    def check(result: SweepResult) -> Tuple[bool, str]:
        passed = True
        parts: List[str] = []
        for protocol in protocols:
            series = _series(result, metric, protocol, at)
            ok = holds(series)
            passed = passed and ok
            parts.append(f"{protocol} {_fmt(series)}{'' if ok else ' (fails)'}")
        return passed, "; ".join(parts)

    return check


def rises(
    metric: str,
    protocols: Sequence[str] = ALL,
    tolerance: float = ORDER_TOLERANCE,
    at: At = None,
) -> Check:
    """Each series rises overall: last >= first − tolerance."""
    return _trend(metric, protocols, at, lambda s: s[-1] >= s[0] - tolerance)


def falls(
    metric: str,
    protocols: Sequence[str] = ALL,
    tolerance: float = ORDER_TOLERANCE,
    at: At = None,
) -> Check:
    """Each series falls overall: last <= first + tolerance."""
    return _trend(metric, protocols, at, lambda s: s[-1] <= s[0] + tolerance)


def falls_every_step(
    metric: str, protocols: Sequence[str] = ALL, tolerance: float = ORDER_TOLERANCE
) -> Check:
    """Each series falls at every step: next <= previous + tolerance."""
    return _trend(
        metric,
        protocols,
        None,
        lambda s: all(b <= a + tolerance for a, b in zip(s, s[1:])),
    )


def gap_below(
    metric: str, *pairs: Tuple[str, str], bound: float, at: At = None
) -> Check:
    """For each ``(a, b)`` pair: a − b < ``bound`` at every point.

    ``bound=0`` says that ``b`` beats ``a``; a negative bound asks for a
    lead of more than ``-bound``. Listing a pair in both orders bounds
    the absolute gap.
    """

    def check(result: SweepResult) -> Tuple[bool, str]:
        passed = True
        parts: List[str] = []
        for a, b in pairs:
            gaps = [
                x - y
                for x, y in zip(_series(result, metric, a, at), _series(result, metric, b, at))
            ]
            ok = all(gap < bound for gap in gaps)
            passed = passed and ok
            relation = "<" if ok else "NOT <"
            parts.append(f"{a} - {b} {_fmt(gaps)} {relation} {bound:g}")
        return passed, "; ".join(parts)

    return check


def ratio_at_least(metric: str, better: str, worse: str, k: float, at: float) -> Check:
    """At x = ``at``: ``worse`` is non-zero and ``better`` >= k × ``worse``."""

    def check(result: SweepResult) -> Tuple[bool, str]:
        (b,) = _series(result, metric, better, (at,))
        (w,) = _series(result, metric, worse, (at,))
        return (
            w > 0 and b >= k * w,
            f"{better} {b:.3f} vs {k:g} x {worse} {w:.3f} at x = {at:g}",
        )

    return check


def qm_flat(result: SweepResult) -> Tuple[bool, str]:
    """MBT-QM's file delivery rises by less than half of MBT's rise."""
    qm = result.file_series("mbt-qm")
    mbt = result.file_series("mbt")
    qm_rise = qm[-1] - qm[0]
    mbt_rise = mbt[-1] - mbt[0]
    return qm_rise < mbt_rise / 2, f"QM rise {qm_rise:.3f} vs MBT rise {mbt_rise:.3f}"


def discovery_doubles(result: SweepResult) -> Tuple[bool, str]:
    """At the second-highest x, MBT file delivery >= 1.8 × a non-zero MBT-QM's."""
    check = ratio_at_least("file", "mbt", "mbt-qm", DISCOVERY_GAIN, result.x_values[-2])
    return check(result)


def riders_cost_delivery(result: SweepResult) -> Tuple[bool, str]:
    """The coordinator's file delivery at the most free-riders is below that with none."""
    series = result.file_series("coordinator")
    return series[-1] < series[0], f"coordinator {_fmt(series)}"


def discovery_unaffected(result: SweepResult) -> Tuple[bool, str]:
    """MBT's metadata delivery moves by less than 0.1 from the first x to the last."""
    series = result.metadata_series("mbt")
    return abs(series[-1] - series[0]) < 0.1, f"mbt {_fmt(series)}"


def capacity_holds(table: Sequence[CapacityPoint]) -> Tuple[bool, str]:
    """§V on a table that starts at n = 2: broadcast rises, pair-wise falls.

    The two coincide at n = 2 only and broadcast is strictly ahead
    beyond it. Their quotient is :func:`capacity_gain` (n − 1) up to
    rounding at every n, and exactly at the largest n.
    """
    broadcast = [p.broadcast for p in table]
    pairwise = [p.pairwise for p in table]
    gains = [p.broadcast / p.pairwise for p in table]
    last = table[-1]
    passed = (
        broadcast == sorted(broadcast)
        and pairwise == sorted(pairwise, reverse=True)
        and broadcast[0] == pairwise[0]
        and all(b > p for b, p in zip(broadcast[1:], pairwise[1:]))
        and all(
            math.isclose(gain, capacity_gain(p.clique_size))
            for gain, p in zip(gains, table)
        )
        and gains[-1] == capacity_gain(last.clique_size)
    )
    detail = (
        f"n = {table[0].clique_size}..{last.clique_size}: broadcast "
        f"{broadcast[0]:.3f} -> {broadcast[-1]:.3f}, pair-wise "
        f"{pairwise[0]:.3f} -> {pairwise[-1]:.3f}, broadcast / pair-wise at n = "
        f"{last.clique_size} {gains[-1]:g}"
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
    # Extensions: fixed setups (repro.experiments.ablations), beyond the paper's figures.
    ClaimRow("incentives-riders-cost-delivery", "incentives",
             "free-riders lower total file delivery under the §V-A coordinator "
             "(extension; DieselNet fast, seed 0, 2 metadata and 2 files per "
             "contact, 0 to 60% free-riders)",
             riders_cost_delivery),
    ClaimRow("incentives-cyclic-matches-coordinator", "incentives",
             "with no free-riders, §V-B cyclic credit-ranked turns stay within "
             "0.15 of the coordinator's file delivery (same setup)",
             gap_below("file", ("cyclic", "coordinator"), ("coordinator", "cyclic"),
                       bound=0.15, at=(0.0,))),
    ClaimRow("incentives-riders-not-punished", "incentives",
             "as measured, not as §IV-B hopes: under cyclic credit ranking without "
             "choking, free-riders get at least the cooperators' file delivery "
             "- 0.05 at 20, 40 and 60% free-riders (same setup)",
             at_least("file", ("cyclic-rider", "cyclic-coop"), tolerance=0.05,
                       at=(0.2, 0.4, 0.6))),
    ClaimRow("incentives-choking-cost", "incentives",
             "with no free-riders, encrypted choking (§IV-B future work) costs "
             "cooperators at most 0.10 file delivery (same setup, cyclic turns)",
             at_least("file", ("choked-coop", "cyclic-coop"), tolerance=0.10,
                       at=(0.0,))),
    ClaimRow("incentives-choking-rewards-contributors", "incentives",
             "as measured: with encrypted choking, cooperators out-deliver "
             "free-riders at 40% free-riders (same setup, cyclic turns)",
             gap_below("file", ("choked-rider", "choked-coop"), bound=0.0, at=(0.4,))),
    ClaimRow("incentives-choking-punishes-riders", "incentives",
             "encrypted choking lowers the free-riders' file delivery at 40% "
             "free-riders (same setup, cyclic turns)",
             gap_below("file", ("choked-rider", "cyclic-rider"), bound=0.0, at=(0.4,))),
    ClaimRow("pollution-authentication-holds", "pollution",
             "with signature verification, file delivery at 30 fakes/day stays "
             "within 0.10 of the clean run (§III-B(f); extension, DieselNet fast, "
             "seed 0, 15% pirates, mean over plan seeds 0-4)",
             rises("file", ("defended",), tolerance=0.10, at=(0, 30))),
    ClaimRow("pollution-undefended-hurts", "pollution",
             "without verification, file delivery at 30 fakes/day is more than "
             "0.02 below the defended run's (same setup)",
             gap_below("file", ("undefended", "defended"), bound=-0.02, at=(30,))),
    ClaimRow("pollution-careful-user", "pollution",
             "a user who picks one record per query (§III-B manual selection) "
             "loses at most 0.02 to unverified stores at 30 fakes/day (same setup)",
             at_least("file", ("careful", "undefended"), tolerance=0.02, at=(30,))),
    ClaimRow("piece-size-file-falls", "piece-size",
             "more pieces per file at a fixed piece budget do not raise file "
             "delivery by more than 0.02 (§III-B; extension, DieselNet fast, "
             "seed 0, 4 pieces per contact, 1 to 4 pieces per file)",
             falls("file", ("mbt",), tolerance=0.02)),
    ClaimRow("piece-size-discovery-unaffected", "piece-size",
             "metadata delivery moves by less than 0.1 with pieces per file "
             "(same setup)",
             discovery_unaffected),
    ClaimRow("budgets-duration-helps-nus", "budgets",
             "duration-derived budgets (100 kB/s) beat the fixed per-contact "
             "budgets on NUS's long classes (§V; extension, fast traces, seed 0)",
             gap_below("file", ("fixed", "duration"), bound=0.0, at=(1,))),
    ClaimRow("storage-tight-metadata", "storage",
             "a 5-record metadata store beats the unbounded store's metadata "
             "delivery by at most 0.05 under every eviction policy (extension; "
             "DieselNet fast, seed 0)",
             rises("metadata", EVICTION_POLICIES, tolerance=0.05,
                   at=(STORE_CAPACITIES[0], UNBOUNDED))),
    ClaimRow("storage-popularity-capacity-helps", "storage",
             "under popularity eviction, file delivery at 40 records is at least "
             "that at 5 records - 0.05 (same setup)",
             rises("file", ("popularity",), tolerance=0.05, at=STORE_CAPACITIES)),
    ClaimRow("storage-popularity-vs-fifo", "storage",
             "at 5 records, popularity eviction's file delivery is at least "
             "FIFO's - 0.05 (same setup)",
             at_least("file", ("popularity", "fifo"), tolerance=0.05,
                       at=STORE_CAPACITIES[:1])),
    ClaimRow("storage-utility-vs-popularity", "storage",
             "utility eviction (popularity x remaining TTL) is at least popularity "
             "eviction's file delivery - 0.03 at 5, 15 and 40 records (same setup)",
             at_least("file", ("utility", "popularity"), tolerance=0.03,
                       at=STORE_CAPACITIES)),
    ClaimRow("broadcast-file-order", "broadcast",
             "broadcast download delivers at least pair-wise's file ratio at every "
             "attendance rate (§V end to end; NUS fast, seed 0, 2 metadata and "
             "2 files per contact)",
             at_least("file", ("broadcast", "pairwise"), tolerance=0.0)),
    ClaimRow("broadcast-metadata-order", "broadcast",
             "broadcast delivers at least pair-wise's metadata ratio at every "
             "attendance rate (same setup)",
             at_least("metadata", ("broadcast", "pairwise"), tolerance=0.0)),
    ClaimRow("broadcast-gain-full-attendance", "broadcast",
             "at full attendance (the largest cliques) broadcast's file delivery "
             "is at least 1.2x pair-wise's (same setup)",
             ratio_at_least("file", "broadcast", "pairwise", 1.2, at=1.0)),
    ClaimRow("podcast-mbt-wins", "podcast",
             "MBT beats channel podcasting on file delivery at every whole-file "
             "budget (§II-C; extension, DieselNet fast, seed 0, budgets 1, 3, 6)",
             gap_below("file", ("podcast", "mbt"), bound=0.0)),
    ClaimRow("podcast-scarce-gain", "podcast",
             "at a budget of one file per contact MBT's file delivery is at least "
             "1.5x podcasting's (same setup)",
             ratio_at_least("file", "mbt", "podcast", 1.5, at=1)),
    ClaimRow("runtime-metadata-agrees", "runtime",
             "the wire runtime's metadata delivery is within 0.06 of the "
             "simulator's for every variant (fast DieselNet and NUS, seed 0)",
             gap_below("metadata", ("runtime", "simulator"), ("simulator", "runtime"),
                       bound=RUNTIME_TOLERANCE)),
    ClaimRow("runtime-file-agrees", "runtime",
             "the wire runtime's file delivery is within 0.06 of the simulator's "
             "for every variant (same setup)",
             gap_below("file", ("runtime", "simulator"), ("simulator", "runtime"),
                       bound=RUNTIME_TOLERANCE)),
    ClaimRow("mobility-metadata-order", "mobility",
             "MBT >= MBT-QM - 0.05 on metadata delivery under random-waypoint and "
             "community mobility (extension; sparse 20-node, 3-day traces, seed 0)",
             at_least("metadata", ("mbt", "mbt-qm"), tolerance=0.05)),
    ClaimRow("mobility-file-order", "mobility",
             "MBT >= MBT-QM - 0.05 on file delivery under both mobility models "
             "(same setup)",
             at_least("file", ("mbt", "mbt-qm"), tolerance=0.05)),
    ClaimRow("oracle-bound-holds", "oracle",
             "MBT's file delivery is at most the space-time reachability bound "
             "+ 0.1 (§II-A; DieselNet fast, seed 0)",
             at_least("file", ("oracle", "mbt"), tolerance=0.1)),
    ClaimRow("oracle-share", "oracle",
             "MBT realizes at least 0.4 of the reachability bound (same setup)",
             ratio_at_least("file", "mbt", "oracle", 0.4, at=0.3)),
    ClaimRow("figloss-file-falls", "figloss",
             "file delivery does not rise with the per-receiver loss rate "
             "(robustness; DieselNet fast, seed 0, loss 0 to 0.5)",
             falls("file")),
    ClaimRow("figloss-file-order", "figloss",
             "MBT >= MBT-Q >= MBT-QM on file delivery under loss (same setup)",
             dominates("file", ("mbt", "mbt-q"), ("mbt-q", "mbt-qm"))),
    ClaimRow("figrobust-plain-falls", "figrobust",
             "with the plain §IV-B credits, honest MBT file delivery falls at "
             "every step of the adversary fraction (robustness; DieselNet fast, "
             "seed 1, tit-for-tat and choking, polluters and exploiters)",
             falls_every_step("file", ("mbt+tft",), tolerance=0.0)),
    ClaimRow("figrobust-reputation-recovers", "figrobust",
             "the reputation ledger gives honest MBT nodes at least the plain "
             "credits' file delivery wherever adversaries are present (same setup)",
             at_least("file", ("mbt+rep", "mbt+tft"), tolerance=0.0,
                       at=ADVERSARY_FRACTIONS[1:])),
    ClaimRow("figrobust-reputation-wins", "figrobust",
             "at the largest adversary fraction the reputation ledger beats the "
             "plain credits (same setup)",
             gap_below("file", ("mbt+tft", "mbt+rep"), bound=0.0,
                       at=ADVERSARY_FRACTIONS[-1:])),
    # §V — analytic, no panel.
    ClaimRow("capacity", None,
             "broadcast per-node capacity (n-1)/n rises with density, "
             "pair-wise 1/n falls; gain n-1 (§V)",
             lambda _result: capacity_holds(capacity_table(CAPACITY_SIZES))),
)

#: The panels that rows read, in row order: the Fig. 2/3 panels of
#: :data:`~repro.experiments.figures.FIGURES`, then the extension panels.
PANELS = tuple(dict.fromkeys(row.panel for row in CLAIMS if row.panel is not None))


def run_panel(
    panel: str, scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Run one panel; ``scale`` and ``seeds`` apply only to the Fig. 2/3 panels."""
    if panel in EXTENSION_PANELS:
        return EXTENSION_PANELS[panel](jobs=jobs)
    return FIGURES[panel](scale=scale, seeds=tuple(seeds), jobs=jobs)


def check_panel(panel: Optional[str], result: Optional[SweepResult]) -> List[Claim]:
    """Evaluate every row of ``panel`` (``None``: the capacity row)."""
    return [row.evaluate(result) for row in CLAIMS if row.panel == panel]


def validate_reproduction(
    scale: Scale = "fast", seeds: Sequence[int] = (0,)
) -> List[Claim]:
    """Run each panel of :data:`CLAIMS` once; one :class:`Claim` per row."""
    results = {panel: run_panel(panel, scale, seeds) for panel in PANELS}
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
