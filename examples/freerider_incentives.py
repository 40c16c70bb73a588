#!/usr/bin/env python
"""Free-riders and the tit-for-tat credit mechanism (§IV-B, §V-B).

A growing fraction of buses refuse to transmit anything (free-riders).
We compare the plain altruistic policy (the §V-A coordinator) against
tit-for-tat (§V-B cyclic turns ranked by credit), and inspect the
credit ledgers: contributors accumulate credit with their peers,
free-riders stay at zero and therefore get their requests served last.

Run:  python examples/freerider_incentives.py
"""

from __future__ import annotations

from dataclasses import replace
from statistics import mean

from repro import AdversaryPlan, Simulation, SimulationConfig
from repro.experiments.ablations import group_ratios
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace


def main() -> None:
    trace = generate_dieselnet_trace(
        DieselNetConfig(num_buses=20, num_days=8), seed=11
    )
    base = SimulationConfig(
        internet_access_fraction=0.3,
        files_per_day=40,
        metadata_per_contact=2,
        files_per_contact=2,
        seed=11,
    )

    print(f"{'selfish':>8}{'policy':>12}{'coop file':>11}{'rider file':>12}")
    last_tft_sim = None
    for fraction in (0.0, 0.2, 0.4, 0.6):
        for label, overrides in (
            ("plain", dict(tit_for_tat=False)),
            ("tft", dict(tit_for_tat=True)),
            ("tft+choke", dict(tit_for_tat=True, encrypted_choking=True)),
        ):
            riders = AdversaryPlan(fraction=fraction, mix=(("free_rider", 1.0),))
            sim = Simulation(trace, replace(base, adversaries=riders, **overrides))
            sim.run()
            if label == "tft":
                last_tft_sim = sim
            (__, coop_file), (__, rider_file) = group_ratios(sim)
            print(f"{fraction:>8.1f}{label:>12}{coop_file:>11.3f}{rider_file:>12.3f}")

    assert last_tft_sim is not None
    print("\nCredit earned (averaged over peers' ledgers) at 60% free-riders:")
    earned = {node: 0.0 for node in last_tft_sim.states}
    for state in last_tft_sim.states.values():
        for peer, credit in state.credits.as_mapping().items():
            earned[peer] += credit

    cooperative = [
        earned[node]
        for node in last_tft_sim.states
        if node not in last_tft_sim.adversary_nodes
    ]
    selfish = [
        earned[node]
        for node in last_tft_sim.states
        if node in last_tft_sim.adversary_nodes
    ]
    print(f"  cooperative nodes: {mean(cooperative):10.1f} total credit earned")
    print(f"  free-riders:       {mean(selfish):10.1f} total credit earned")
    print(
        "\nThe broadcast channel alone cannot punish free-riders — they"
        "\noverhear everything and spend no battery, and in some settings"
        "\nthey out-deliver cooperators. Credits record the imbalance"
        "\n(free-riders earn none), and the encrypted-choking extension"
        "\n(the paper's §IV-B future work) converts that record into"
        "\nconsequences: choked riders' delivery drops while seeds keep"
        "\nserving everyone. The incentives-* rows of `python -m repro"
        "\nvalidate` check the configuration where the payoff ordering"
        "\nfully inverts."
    )


if __name__ == "__main__":
    main()
