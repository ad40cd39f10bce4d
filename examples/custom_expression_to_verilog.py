#!/usr/bin/env python3
"""From a text expression to a Verilog netlist (the paper's tool interface).

The paper's program "accepts an arithmetic expression (together with input
characteristics, i.e. bit-width, arrival time and signal probability) as input
and generates the netlist of a functionally equivalent FA-tree with
optimal-timing/low-power in Verilog HDL".  This example does exactly that for
a user-provided expression:

* parse the expression text,
* build the addend matrix and run FA_AOT (timing) and FA_ALP (power),
* verify equivalence by simulation,
* emit structural Verilog for both netlists next to this script.

Run with:  python examples/custom_expression_to_verilog.py
"""

import pathlib

from repro.api import Flow, FlowConfig
from repro.designs.base import DatapathDesign
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.netlist.verilog import to_verilog
from repro.sim.equivalence import check_equivalence

EXPRESSION_TEXT = "a*b + c*d - e + 25"

SIGNALS = {
    "a": SignalSpec("a", 6, arrival=0.3, probability=0.3),
    "b": SignalSpec("b", 6, probability=0.7),
    "c": SignalSpec("c", 6, arrival=[0.05 * i for i in range(6)]),
    "d": SignalSpec("d", 6),
    "e": SignalSpec("e", 8, arrival=0.6, probability=0.2),
}

OUTPUT_WIDTH = 13


def main() -> None:
    expression = parse_expression(EXPRESSION_TEXT)
    design = DatapathDesign(
        name="custom",
        title=EXPRESSION_TEXT,
        expression=expression,
        signals=SIGNALS,
        output_width=OUTPUT_WIDTH,
        description="User-provided expression.",
    )
    print(f"expression   : {EXPRESSION_TEXT}")
    print(f"output width : {OUTPUT_WIDTH} bits (result is taken modulo 2^{OUTPUT_WIDTH})")

    output_dir = pathlib.Path(__file__).resolve().parent
    for method, objective in (("fa_aot", "timing"), ("fa_alp", "power")):
        result = Flow(FlowConfig(method=method)).run(design)
        check_equivalence(
            result.netlist,
            result.output_bus,
            expression,
            SIGNALS,
            output_width=OUTPUT_WIDTH,
            random_vector_count=200,
        ).assert_ok()
        verilog = to_verilog(result.netlist, module_name=f"custom_{method}")
        target = output_dir / f"custom_{method}.v"
        target.write_text(verilog, encoding="utf-8")
        print(
            f"\n{method} ({objective}-optimized): delay={result.delay_ns:.3f} ns, "
            f"area={result.area:.0f}, E_switching(T)={result.tree_energy:.3f}"
        )
        print(f"  {result.fa_count} full adders, {result.ha_count} half adders, "
              f"{result.cell_count} cells total")
        print(f"  wrote {target.name} ({len(verilog.splitlines())} lines of Verilog)")


if __name__ == "__main__":
    main()
