#!/usr/bin/env python3
"""Quickstart: synthesize one arithmetic expression three ways and compare.

This walks through the full public API on the paper's Figure 1 / Table 1 style
of problem:

1. describe an arithmetic expression and its input characteristics,
2. synthesize it with the conventional operator-level flow, the classic
   Wallace scheme and the paper's FA_AOT algorithm,
3. verify that all three netlists are functionally equivalent to the
   expression, and
4. compare delay, area and switching energy.

Run with:  python examples/quickstart.py
"""

from repro.api import Flow, FlowConfig
from repro.designs.base import DatapathDesign
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.sim.equivalence import check_equivalence
from repro.utils.tables import TextTable


def main() -> None:
    # 1. The design: F = x^2 + x + y with 8-bit operands.  The x operand
    #    arrives late (it comes out of an upstream block at 0.7 ns), which is
    #    exactly the situation the arrival-driven FA-tree allocation exploits.
    design = DatapathDesign(
        name="quickstart",
        title="x^2 + x + y",
        expression=parse_expression("x*x + x + y"),
        signals={
            "x": SignalSpec("x", 8, arrival=0.7),
            "y": SignalSpec("y", 8),
        },
        output_width=16,
        description="Quickstart design (Table 1, row 3 of the paper).",
    )

    # 2. Synthesize with three methods.
    methods = ["conventional", "wallace", "fa_aot"]
    results = {method: Flow(FlowConfig(method=method)).run(design) for method in methods}

    # 3. Every netlist must compute the same function (checked by simulation).
    for method, result in results.items():
        report = check_equivalence(
            result.netlist,
            result.output_bus,
            design.expression,
            design.signals,
            output_width=design.output_width,
        )
        report.assert_ok()
        print(f"{method:<14} functionally equivalent "
              f"({report.vectors_checked} vectors, exhaustive={report.exhaustive})")

    # 4. Compare the implementations.
    table = TextTable(["method", "delay (ns)", "area", "cells", "FA", "HA", "E_switching(T)"])
    for method in methods:
        result = results[method]
        table.add_row(
            [
                method,
                result.delay_ns,
                result.area,
                result.cell_count,
                result.fa_count,
                result.ha_count,
                result.tree_energy,
            ]
        )
    print()
    print(table.render(title="Quickstart comparison (x^2 + x + y, 8-bit operands)"))
    fastest = min(methods, key=lambda m: results[m].delay_ns)
    print(f"\nFastest method: {fastest}")


if __name__ == "__main__":
    main()
