#!/usr/bin/env python3
"""Low-power FA-tree allocation (paper Table 2 protocol) on a filter datapath.

The paper's power experiment assigns random signal probabilities to the design
inputs and compares the switching energy E_switching(T) of the FA-tree
produced by random input selection (FA_random) against the one produced by
FA_ALP, which feeds each FA with the three addends of largest |p - 0.5|.

This example runs that protocol on the Serial-Adapter benchmark, cross-checks
the probabilistic estimate against a vector simulation, and prints the
per-cell-type energy breakdown.

Run with:  python examples/low_power_filter.py
"""

from repro.api import Flow, FlowConfig
from repro.designs.registry import get_design, with_random_probabilities
from repro.power.report import power_report
from repro.sim.toggles import empirical_switching
from repro.utils.metrics import improvement_pct
from repro.utils.tables import TextTable


def main() -> None:
    design = with_random_probabilities(get_design("serial_adapter"), seed=2000)
    print(design.summary())
    print("input probability profile (first bits):")
    for name, spec in design.signals.items():
        bits = ", ".join(f"{p:.2f}" for p in spec.probability_profile()[:4])
        print(f"  {name:<4} p = [{bits}, ...]")
    print()

    random_result = Flow(FlowConfig(method="fa_random", seed=2000)).run(design)
    alp_result = Flow(FlowConfig(method="fa_alp")).run(design)

    table = TextTable(["method", "E_switching(T)", "total energy", "FA", "HA"])
    for label, result in (("FA_random", random_result), ("FA_ALP", alp_result)):
        table.add_row(
            [label, result.tree_energy, result.total_energy, result.fa_count, result.ha_count]
        )
    print(table.render(title="Serial-Adapter: power-driven FA-tree allocation"))
    improvement = improvement_pct(random_result.tree_energy, alp_result.tree_energy)
    print(
        f"\nFA_ALP reduces the compressor-tree switching energy by {improvement:.1f}% "
        f"(the paper reports 25.9% for Serial-Adapter, 11.8% on average)\n"
    )

    # Cross-check the probabilistic model against a vector simulation: the
    # average per-net toggle rate of the FA outputs should track 2*p*(1-p).
    stats = empirical_switching(alp_result.netlist, design.signals, vector_count=300, seed=9)
    modelled = []
    measured = []
    for cell in alp_result.compression.fa_cells[:40]:
        for port in ("s", "co"):
            net = cell.outputs[port]
            probability = alp_result.probabilities.probability_of(net)
            modelled.append(2.0 * probability * (1.0 - probability))
            measured.append(stats.rate_of(net.name))
    average_model = sum(modelled) / len(modelled)
    average_measured = sum(measured) / len(measured)
    print("Probabilistic model vs. vector simulation (first 40 FAs):")
    print(f"  mean modelled toggle rate : {average_model:.3f}")
    print(f"  mean simulated toggle rate: {average_measured:.3f}")

    print()
    print(power_report(alp_result.netlist, alp_result.power))


if __name__ == "__main__":
    main()
