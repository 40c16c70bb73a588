"""Ablation — tit-for-tat credits under selfish populations (§IV-B/§V-B).

The paper's incentive argument: with the credit mechanism, nodes that
contribute get their requests served earlier, so cooperative nodes are
shielded from free-riders. We sweep the free-rider fraction and compare
the altruistic arm (``tit_for_tat=False``: the §V-A coordinator picks
each transmission for the whole clique) against the tit-for-tat arm
(``tit_for_tat=True``: §V-B cyclic turns, each sender ranking by the
credit it holds for the requesters). Following Nielson et al.'s test
for an incentive, each arm also reports what cooperators and
free-riders get.
"""

from dataclasses import replace

from repro.core.strategies import AdversaryPlan
from repro.detlint.sanitizer import result_fingerprint
from repro.experiments.workloads import dieselnet_base_config, dieselnet_trace
from repro.sim.runner import Simulation

from conftest import group_files

SELFISH_FRACTIONS = (0.0, 0.2, 0.4, 0.6)


def run_sweep():
    trace = dieselnet_trace("fast", seed=0)
    base = replace(
        dieselnet_base_config(seed=0),
        metadata_per_contact=2,
        files_per_contact=2,
    )
    rows = []
    for fraction in SELFISH_FRACTIONS:
        riders = AdversaryPlan(fraction=fraction, mix=(("free_rider", 1.0),))
        arms = []
        for tit_for_tat in (False, True):
            sim = Simulation(
                trace, replace(base, adversaries=riders, tit_for_tat=tit_for_tat)
            )
            result = sim.run()
            arms.append((result, group_files(sim)))
        rows.append((fraction, *arms))
    return rows


def test_tit_for_tat_under_free_riders(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    def fmt(groups):
        coop_file, rider_file, rider_count = groups
        rider = f"{rider_file:.3f}" if rider_count else "-"
        return f"{coop_file:.3f} / {rider}"

    print()
    print(f"{'selfish':>8}{'plain meta':>12}{'tft meta':>12}"
          f"{'plain file':>12}{'tft file':>12}"
          f"{'plain coop/rider':>18}{'tft coop/rider':>16}")
    for fraction, (plain, plain_groups), (tft, tft_groups) in rows:
        print(
            f"{fraction:>8.1f}{plain.metadata_delivery_ratio:>12.3f}"
            f"{tft.metadata_delivery_ratio:>12.3f}"
            f"{plain.file_delivery_ratio:>12.3f}{tft.file_delivery_ratio:>12.3f}"
            f"{fmt(plain_groups):>18}{fmt(tft_groups):>16}"
        )

    # The two arms are different runs at every fraction.
    for fraction, (plain, __), (tft, __) in rows:
        assert result_fingerprint(plain) != result_fingerprint(tft), fraction

    # Free-riders hurt overall delivery in both arms.
    plain_files = [plain.file_delivery_ratio for __, (plain, __), __ in rows]
    assert plain_files[-1] < plain_files[0]

    # Tit-for-tat stays within noise of the altruistic policy when
    # everyone cooperates and remains a functioning protocol throughout.
    first_plain, first_tft = rows[0][1][0], rows[0][2][0]
    assert abs(first_tft.file_delivery_ratio - first_plain.file_delivery_ratio) < 0.15
    for __, __, (tft, __) in rows:
        assert 0.0 <= tft.file_delivery_ratio <= 1.0
