#!/usr/bin/env python3
"""Survey of every allocation method on the paper's polynomial benchmarks.

Runs all eight synthesis methods (the paper's two algorithms, the random
baseline, classic Wallace and Dadda trees, the column-isolation variant, the
word-level CSA_OPT allocator and conventional operator-level synthesis) on the
five polynomial designs of Table 1 and prints delay / area / switching-energy
matrices.

Run with:  python examples/baseline_comparison.py
"""

from repro.api import SYNTHESIS_METHODS, Flow, FlowConfig
from repro.designs.registry import get_design
from repro.utils.tables import TextTable

DESIGNS = ["x2", "x3", "x2_plus_x_plus_y", "square_of_sum", "mixed_products"]


def main() -> None:
    methods = list(SYNTHESIS_METHODS)
    results = {}
    for design_name in DESIGNS:
        design = get_design(design_name)
        for method in methods:
            results[(design_name, method)] = Flow(FlowConfig(method=method, seed=1)).run(
                design
            )
        print(f"synthesized {design_name} with {len(methods)} methods")

    for metric, label, digits in (
        ("delay_ns", "delay (ns)", 3),
        ("area", "area (library units)", 0),
        ("tree_energy", "compressor-tree E_switching", 2),
    ):
        table = TextTable(["design"] + methods, float_digits=digits)
        for design_name in DESIGNS:
            table.add_row(
                [design_name]
                + [getattr(results[(design_name, method)], metric) for method in methods]
            )
        print()
        print(table.render(title=label))

    print("\nObservations (expected from the paper):")
    print("  * fa_aot has the smallest delay on every design;")
    print("  * conventional is the slowest — every operator boundary adds a carry chain;")
    print("  * fa_alp has the smallest compressor-tree switching energy;")
    print("  * csa_opt sits between conventional and fa_aot.")


if __name__ == "__main__":
    main()
