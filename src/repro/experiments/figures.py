"""One function per figure panel of the paper's evaluation (§VI-B).

Figure 2 panels sweep the DieselNet trace, Figure 3 panels the NUS
student trace:

    (a) percentage of Internet-access nodes
    (b) number of new files per day
    (c) file TTL in days
    (d) metadata transmissions per contact
    (e) file transmissions per contact
    (f) attendance rate (NUS only)

Every function accepts a ``scale`` ("fast" for CI-sized runs, "paper"
for full-sized ones), a seed list to average over, and ``jobs`` — the
worker-process count handed to the shared execution kernel
(:mod:`repro.exec`); ``jobs=4`` runs the panel's x × protocol × seed
grid four runs at a time with results identical to serial execution.

Trace factories return :class:`~repro.exec.TraceSpec` values (a dotted
builder path plus arguments) rather than built traces, so specs stay
cheap to pickle and each worker builds any distinct trace exactly once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Sequence, Tuple

from repro.core.mbt import ProtocolVariant
from repro.core.strategies import AdversaryPlan
from repro.exec import TraceSpec
from repro.experiments.sweep import SweepResult, delivery, run_sweep
from repro.experiments.workloads import (
    Scale,
    dieselnet_base_config,
    dieselnet_trace,
    nus_base_config,
    nus_trace,
)
from repro.sim.metrics import SimulationResult
from repro.sim.runner import SimulationConfig

#: Paper x-axis ranges (§VI-A).
ACCESS_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
FILES_PER_DAY = (10, 25, 40, 70, 100)
TTL_DAYS = (1, 2, 3, 4, 5)
PER_CONTACT_BUDGETS = (1, 2, 4, 7, 10)
ATTENDANCE_RATES = (0.2, 0.4, 0.6, 0.8, 1.0)
#: Robustness sweep (beyond the paper): per-receiver transmission loss.
LOSS_RATES = (0.0, 0.1, 0.2, 0.3, 0.5)
#: Robustness sweep (beyond the paper): fraction of adversarial nodes.
ADVERSARY_FRACTIONS = (0.0, 0.15, 0.3, 0.45)
#: Threat mix of the adversarial panel: dominated by polluters — the
#: verifiable offence the reputation defense can actually neutralize —
#: with exploiters gaming the credit scheme on the side. (Free-riders
#: and under-reporters simply withhold capacity, which no credit
#: scheme can restore; mixing them in only dilutes the comparison.)
FIGROBUST_MIX: Tuple[Tuple[str, float], ...] = (
    ("exploiter", 1.0),
    ("polluter", 3.0),
)


def _sweep_access(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(config, internet_access_fraction=x, seed=seed)


def _sweep_files_per_day(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(config, files_per_day=int(x), seed=seed)


def _sweep_ttl(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(config, ttl_days=float(x), seed=seed)


def _sweep_meta_budget(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(config, metadata_per_contact=int(x), seed=seed)


def _sweep_file_budget(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(config, files_per_contact=int(x), seed=seed)


def _sweep_seed_only(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(config, seed=seed)


def _sweep_loss(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(
        config, faults=replace(config.faults, loss_rate=float(x)), seed=seed
    )


def _sweep_adversaries(config: SimulationConfig, x: float, seed: int) -> SimulationConfig:
    return replace(
        config,
        seed=seed,
        adversaries=AdversaryPlan(fraction=x, mix=FIGROBUST_MIX, seed=1),
    )


def _honest_delivery(result: SimulationResult) -> Tuple[float, float]:
    """Delivery over the honest, non-access nodes (global on a clean plan)."""
    extra = result.extra
    if "adversary.honest_file_ratio" in extra:
        return (
            extra["adversary.honest_metadata_ratio"],
            extra["adversary.honest_file_ratio"],
        )
    return delivery(result)


def _dieselnet_spec(scale: Scale) -> Callable[[float, int], TraceSpec]:
    """Spec factory for the DieselNet trace (x-independent)."""
    return lambda x, seed: TraceSpec.of(dieselnet_trace, scale, seed)


def _nus_spec(scale: Scale) -> Callable[[float, int], TraceSpec]:
    """Spec factory for the NUS trace (x-independent)."""
    return lambda x, seed: TraceSpec.of(nus_trace, scale, seed)


# ----------------------------------------------------------------- Figure 2


def fig2a(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 2(a): delivery vs % of Internet-access nodes (DieselNet)."""
    return run_sweep(
        name="Fig 2(a) DieselNet — Internet-access fraction",
        x_label="access fraction",
        x_values=ACCESS_FRACTIONS,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_access,
        base_config=dieselnet_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig2b(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 2(b): delivery vs new files per day (DieselNet)."""
    return run_sweep(
        name="Fig 2(b) DieselNet — new files per day",
        x_label="files/day",
        x_values=FILES_PER_DAY,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_files_per_day,
        base_config=dieselnet_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig2c(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 2(c): delivery vs file TTL in days (DieselNet)."""
    return run_sweep(
        name="Fig 2(c) DieselNet — file TTL (days)",
        x_label="TTL (days)",
        x_values=TTL_DAYS,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_ttl,
        base_config=dieselnet_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig2d(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 2(d): delivery vs metadata per contact (DieselNet)."""
    return run_sweep(
        name="Fig 2(d) DieselNet — metadata per contact",
        x_label="metadata/contact",
        x_values=PER_CONTACT_BUDGETS,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_meta_budget,
        base_config=dieselnet_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig2e(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 2(e): delivery vs files per contact (DieselNet)."""
    return run_sweep(
        name="Fig 2(e) DieselNet — files per contact",
        x_label="files/contact",
        x_values=PER_CONTACT_BUDGETS,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_file_budget,
        base_config=dieselnet_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


# ----------------------------------------------------------------- Figure 3


def fig3a(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 3(a): delivery vs % of Internet-access nodes (NUS)."""
    return run_sweep(
        name="Fig 3(a) NUS — Internet-access fraction",
        x_label="access fraction",
        x_values=ACCESS_FRACTIONS,
        trace_factory=_nus_spec(scale),
        config_factory=_sweep_access,
        base_config=nus_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig3b(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 3(b): delivery vs new files per day (NUS)."""
    return run_sweep(
        name="Fig 3(b) NUS — new files per day",
        x_label="files/day",
        x_values=FILES_PER_DAY,
        trace_factory=_nus_spec(scale),
        config_factory=_sweep_files_per_day,
        base_config=nus_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig3c(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 3(c): delivery vs file TTL in days (NUS)."""
    return run_sweep(
        name="Fig 3(c) NUS — file TTL (days)",
        x_label="TTL (days)",
        x_values=TTL_DAYS,
        trace_factory=_nus_spec(scale),
        config_factory=_sweep_ttl,
        base_config=nus_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig3d(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 3(d): delivery vs metadata per contact (NUS)."""
    return run_sweep(
        name="Fig 3(d) NUS — metadata per contact",
        x_label="metadata/contact",
        x_values=PER_CONTACT_BUDGETS,
        trace_factory=_nus_spec(scale),
        config_factory=_sweep_meta_budget,
        base_config=nus_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig3e(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 3(e): delivery vs files per contact (NUS)."""
    return run_sweep(
        name="Fig 3(e) NUS — files per contact",
        x_label="files/contact",
        x_values=PER_CONTACT_BUDGETS,
        trace_factory=_nus_spec(scale),
        config_factory=_sweep_file_budget,
        base_config=nus_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def fig3f(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Fig. 3(f): delivery vs class attendance rate (NUS).

    This sweep varies the *trace generator*: each x regenerates the NUS
    trace with a different attendance rate.
    """
    return run_sweep(
        name="Fig 3(f) NUS — attendance rate",
        x_label="attendance rate",
        x_values=ATTENDANCE_RATES,
        trace_factory=lambda x, seed: TraceSpec.of(
            nus_trace, scale, seed, attendance_rate=x
        ),
        config_factory=_sweep_seed_only,
        base_config=nus_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


# ----------------------------------------------------------- Robustness


def figloss(
    scale: Scale = "fast", seeds: Sequence[int] = (0,), jobs: int = 1
) -> SweepResult:
    """Robustness panel (beyond the paper): delivery vs loss rate.

    Sweeps the per-receiver transmission-loss probability of
    :class:`~repro.faults.FaultPlan` on the DieselNet trace — how
    gracefully each protocol variant degrades when the radio channel is
    unreliable. The x = 0 column is exactly the clean run.
    """
    return run_sweep(
        name="Robustness DieselNet — transmission loss rate",
        x_label="loss rate",
        x_values=LOSS_RATES,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_loss,
        base_config=dieselnet_base_config(),
        seeds=seeds,
        jobs=jobs,
    )


def figrobust(
    scale: Scale = "fast", seeds: Sequence[int] = (1,), jobs: int = 1
) -> SweepResult:
    """Robustness panel (beyond the paper): delivery vs adversary fraction.

    Sweeps the fraction of adversarial nodes (:data:`FIGROBUST_MIX`,
    assigned by a seed-frozen :class:`~repro.core.strategies.AdversaryPlan`)
    against four series — protocol variant × credit policy — on the
    DieselNet trace with tit-for-tat and encrypted choking on:

    * ``mbt+tft`` / ``mbt_qm+tft``: the paper's plain §IV-B credits,
      which trust every claim and pay for every novel item. Delivery
      among the *honest* population collapses as the adversary fraction
      grows (polluters tax every contact's budget with evergreen fakes,
      exploiters farm credit with inflated popularity claims).
    * ``mbt+rep`` / ``mbt_qm+rep``: the reputation-hardened ledger
      (:class:`~repro.core.credits.ReputationCreditLedger`): failed
      verifications and over-claims are penalized, low-reputation peers
      are discounted everywhere, and first-hand-rejected URIs stop
      being transmission targets — honest delivery degrades gracefully
      instead.

    The y values are delivery ratios over the honest, non-access
    population (``adversary.honest_*``; at fraction 0 the plan is clean
    and the global ratios are used — the populations coincide). The
    default seed is 1: with ``fast``-scale traces (20 buses) the
    per-fraction adversary count moves in steps of 3, so some single
    seeds draw non-monotone assignments; averaging several seeds
    smooths any of them.
    """
    series = {
        f"{variant.value.replace('-', '_')}+{label}": (
            lambda config, variant=variant, policy=policy: replace(
                config.with_variant(variant), credit_policy=policy
            )
        )
        for variant in (ProtocolVariant.MBT, ProtocolVariant.MBT_QM)
        for label, policy in (("tft", "plain"), ("rep", "reputation"))
    }
    return run_sweep(
        name="Robustness DieselNet — adversary fraction (honest-node delivery)",
        x_label="adversary fraction",
        x_values=ADVERSARY_FRACTIONS,
        trace_factory=_dieselnet_spec(scale),
        config_factory=_sweep_adversaries,
        base_config=replace(
            dieselnet_base_config(), tit_for_tat=True, encrypted_choking=True
        ),
        protocols=series,
        seeds=seeds,
        jobs=jobs,
        reading=_honest_delivery,
    )


#: Registry of the figure panels, used by ``repro sweep`` and the claims table.
FIGURES: Dict[str, Callable[..., SweepResult]] = {
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig2c": fig2c,
    "fig2d": fig2d,
    "fig2e": fig2e,
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig3c": fig3c,
    "fig3d": fig3d,
    "fig3e": fig3e,
    "fig3f": fig3f,
    "figloss": figloss,
    "figrobust": figrobust,
}
