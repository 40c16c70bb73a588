"""Ablation — tit-for-tat credits under selfish populations (§IV-B/§V-B).

The paper's incentive argument: with the credit mechanism, nodes that
contribute get their requests served earlier, so cooperative nodes are
shielded from free-riders. We sweep the selfish-node fraction and
compare delivery with and without tit-for-tat (cyclic scheduling in
both arms so only the selection policy differs).
"""

from dataclasses import replace

from repro.core.mbt import SchedulingMode
from repro.core.strategies import AdversaryPlan
from repro.experiments.workloads import dieselnet_base_config, dieselnet_trace
from repro.sim.runner import Simulation

SELFISH_FRACTIONS = (0.0, 0.2, 0.4, 0.6)


def run_sweep():
    trace = dieselnet_trace("fast", seed=0)
    base = replace(
        dieselnet_base_config(seed=0),
        scheduling=SchedulingMode.CYCLIC,
        metadata_per_contact=2,
        files_per_contact=2,
    )
    rows = []
    for fraction in SELFISH_FRACTIONS:
        riders = AdversaryPlan(fraction=fraction, mix=(("free_rider", 1.0),))
        altruistic = Simulation(
            trace, replace(base, adversaries=riders, tit_for_tat=False)
        ).run()
        tft = Simulation(
            trace, replace(base, adversaries=riders, tit_for_tat=True)
        ).run()
        rows.append((fraction, altruistic, tft))
    return rows


def test_tit_for_tat_under_free_riders(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print()
    print(f"{'selfish':>8}{'plain meta':>12}{'tft meta':>12}"
          f"{'plain file':>12}{'tft file':>12}")
    for fraction, plain, tft in rows:
        print(
            f"{fraction:>8.1f}{plain.metadata_delivery_ratio:>12.3f}"
            f"{tft.metadata_delivery_ratio:>12.3f}"
            f"{plain.file_delivery_ratio:>12.3f}{tft.file_delivery_ratio:>12.3f}"
        )

    # Free-riders hurt overall delivery in both arms.
    plain_files = [plain.file_delivery_ratio for __, plain, __ in rows]
    assert plain_files[-1] < plain_files[0]

    # Tit-for-tat stays within noise of the altruistic policy when
    # everyone cooperates and remains a functioning protocol throughout.
    first_plain, first_tft = rows[0][1], rows[0][2]
    assert abs(first_tft.file_delivery_ratio - first_plain.file_delivery_ratio) < 0.15
    for __, __, tft in rows:
        assert 0.0 <= tft.file_delivery_ratio <= 1.0
