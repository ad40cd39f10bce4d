#!/usr/bin/env python3
"""Timing optimization of an IIR biquad datapath (paper Table 1, IIR row).

This example reproduces the paper's main timing experiment on one design:

* the IIR benchmark (direct-form-I biquad accumulator, 16-bit output) is
  synthesized with the conventional operator-level flow, the authors' earlier
  word-level CSA_OPT allocator and the paper's bit-level FA_AOT algorithm;
* static timing analysis reports the critical path of each implementation;
* the example shows how the gain comes specifically from the uneven arrival
  profile of the live input sample by re-running FA_AOT with all arrivals
  forced to zero.

Run with:  python examples/iir_timing_optimization.py
"""

from repro.api import Flow, FlowConfig
from repro.designs.registry import get_design
from repro.expr.signals import SignalSpec
from repro.tech.default_libs import generic_035
from repro.timing.arrival import compute_arrival_times
from repro.timing.critical_path import extract_critical_path
from repro.utils.metrics import improvement_pct
from repro.utils.tables import TextTable


def main() -> None:
    library = generic_035()
    design = get_design("iir")
    print(design.summary())
    print(f"expression: {design.expression}\n")

    # --- Table-1 style comparison --------------------------------------------
    methods = ["conventional", "csa_opt", "fa_aot"]
    results = {
        method: Flow(FlowConfig(method=method)).run(design, library=library)
        for method in methods
    }
    table = TextTable(["method", "delay (ns)", "area", "FA", "HA", "cells"])
    for method in methods:
        result = results[method]
        table.add_row(
            [method, result.delay_ns, result.area, result.fa_count, result.ha_count,
             result.cell_count]
        )
    print(table.render(title="IIR biquad: timing-driven synthesis"))
    best = results["fa_aot"]
    vs_conventional = improvement_pct(results["conventional"].delay_ns, best.delay_ns)
    vs_csa_opt = improvement_pct(results["csa_opt"].delay_ns, best.delay_ns)
    print(
        f"\nFA_AOT delay improvement: "
        f"{vs_conventional:.1f}% vs conventional, "
        f"{vs_csa_opt:.1f}% vs CSA_OPT "
        f"(paper reports 43.9% and 22.5% for this design)\n"
    )

    # --- Critical path of the FA_AOT implementation --------------------------
    timing = compute_arrival_times(best.netlist, library)
    path = extract_critical_path(best.netlist, library, timing)
    print(f"FA_AOT critical path ({len(path)} stages, {timing.delay:.3f} ns):")
    for step in path[-8:]:
        print(f"  {step.describe()}")

    # --- Where does the gain come from? --------------------------------------
    # Flatten the arrival profile: with every input at t=0 the arrival-driven
    # selection has nothing special to exploit and FA_AOT degenerates to an
    # ordinary (still good) compressor tree.
    flat_signals = {
        name: SignalSpec(name, spec.width, arrival=0.0, probability=spec.probability)
        for name, spec in design.signals.items()
    }
    flat_design = design.with_signals(flat_signals)
    fa_aot = Flow(FlowConfig(method="fa_aot"))
    skewed = fa_aot.run(design, library=library)
    flat = fa_aot.run(flat_design, library=library)
    flat_wallace = Flow(FlowConfig(method="wallace")).run(flat_design, library=library)
    print("\nEffect of the arrival profile on the FA_AOT result:")
    print(f"  skewed arrivals (as in the benchmark): {skewed.delay_ns:.3f} ns")
    print(f"  flat arrivals, FA_AOT               : {flat.delay_ns:.3f} ns")
    print(f"  flat arrivals, Wallace              : {flat_wallace.delay_ns:.3f} ns")
    print(
        "  -> with a flat profile FA_AOT and Wallace are close; the paper's gain "
        "comes from exploiting per-bit arrival skew."
    )
    gain = improvement_pct(flat_wallace.delay_ns, flat.delay_ns)
    print(f"  residual FA_AOT gain on a flat profile: {gain:.1f}%")


if __name__ == "__main__":
    main()
