"""Future work — encrypted choking inverts the free-riding payoff.

§IV-B footnote: "Peers can still be choked if encryption is used. We
will leave this topic for future work." This bench implements and
measures that extension: piece payloads are encrypted and the key is
released only to peers with positive credit at the sender;
Internet-access nodes seed unconditionally (BitTorrent-seed
behaviour); discovery stays open as the bootstrap channel.

Expected shape: without choking, free-riders do at least as well as
cooperators (free-riding pays); with choking, the ordering flips —
cooperators beat free-riders, whose delivery drops distinctly — at a
small cost in the all-cooperative case.
"""

from dataclasses import replace

from repro.core.mbt import SchedulingMode
from repro.core.strategies import AdversaryPlan
from repro.experiments.workloads import dieselnet_base_config, dieselnet_trace
from repro.sim.runner import Simulation

SELFISH_FRACTIONS = (0.0, 0.2, 0.4)


def run_grid():
    trace = dieselnet_trace("fast", seed=0)
    base = replace(
        dieselnet_base_config(seed=0),
        scheduling=SchedulingMode.CYCLIC,
        tit_for_tat=True,
        metadata_per_contact=2,
        files_per_contact=2,
    )
    rows = []
    for fraction in SELFISH_FRACTIONS:
        for choking in (False, True):
            plan = AdversaryPlan(fraction=fraction, mix=(("free_rider", 1.0),))
            config = replace(base, adversaries=plan, encrypted_choking=choking)
            sim = Simulation(trace, config)
            sim.run()
            coop = frozenset(
                n for n in sim.states
                if n not in sim.adversary_nodes and n not in sim.access_nodes
            )
            riders = frozenset(
                n for n in sim.states
                if n in sim.adversary_nodes and n not in sim.access_nodes
            )
            __, coop_file, __ = sim.metrics.ratios_for(coop)
            __, rider_file, rider_count = sim.metrics.ratios_for(riders)
            rows.append((fraction, choking, coop_file, rider_file, rider_count))
    return rows


def test_encrypted_choking(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    print()
    print(f"{'selfish':>8}{'choking':>9}{'coop file':>11}{'rider file':>12}")
    for fraction, choking, coop_file, rider_file, rider_count in rows:
        rider = f"{rider_file:.3f}" if rider_count else "-"
        print(f"{fraction:>8.1f}{str(choking):>9}{coop_file:>11.3f}{rider:>12}")

    by_key = {
        (fraction, choking): (coop, rider)
        for fraction, choking, coop, rider, __ in rows
    }
    # All-cooperative: choking costs little.
    assert by_key[(0.0, True)][0] >= by_key[(0.0, False)][0] - 0.10
    # At 40% free-riders: choking flips the payoff ordering.
    coop_plain, rider_plain = by_key[(0.4, False)]
    coop_choke, rider_choke = by_key[(0.4, True)]
    assert rider_plain >= coop_plain - 0.05  # free-riding paid before
    assert coop_choke > rider_choke  # and no longer does
    assert rider_choke < rider_plain  # riders demonstrably punished
