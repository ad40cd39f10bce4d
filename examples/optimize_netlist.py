#!/usr/bin/env python3
"""Walkthrough: post-construction netlist optimization (`repro.opt`).

The paper's flow measures every netlist exactly as the allocator built it.
Real synthesis flows clean the netlist up afterwards; this example shows the
``repro.opt`` subsystem doing that:

1. synthesize a design at ``-O0`` (as built) and look at its statistics,
2. run the full ``-O2`` pipeline by hand through ``optimize_netlist`` and
   inspect the per-pass report,
3. verify the optimized netlist against the original with the bit-parallel
   netlist-vs-netlist equivalence checker (this also happens automatically
   inside the pass manager),
4. do the same thing in one step with ``FlowConfig(opt_level=2)`` and emit
   the optimized netlist as Verilog,
5. snapshot the optimized netlist to JSON and rebuild it — the round-trip
   used by artifact caching and diffing.

Run with:  python examples/optimize_netlist.py
"""

import json

from repro.api import Flow, FlowConfig
from repro.designs.registry import get_design
from repro.netlist.serialize import netlist_from_dict
from repro.netlist.verilog import to_verilog
from repro.opt import check_netlists_equivalent, optimize_netlist
from repro.tech.default_libs import generic_035


def main() -> None:
    library = generic_035()
    design = get_design("x2_plus_x_plus_y")

    # 1. As-built netlist (-O0 is the default and the paper's protocol).
    result = Flow(FlowConfig(method="fa_aot")).run(design, library=library)
    print(f"as built: {result.stats.summary()}")

    # 2. Optimize a copy by hand with the full -O2 pipeline.  The pass
    #    manager snapshots the netlist first, so we keep the original too.
    original = result.netlist.copy()
    report = optimize_netlist(result.netlist, opt_level=2, library=library)
    print()
    print(report.render())

    # 3. The manager already checked equivalence (see the report), but the
    #    checker is a standalone tool as well:
    check = check_netlists_equivalent(original, result.netlist)
    mode = "exhaustive" if check.exhaustive else "random"
    print()
    print(
        f"standalone re-check: equivalent={check.equivalent} "
        f"({check.vectors_checked} {mode} vectors)"
    )

    # 4. Or do everything in one step through the flow: the result carries
    #    the before/after statistics and the per-pass report.
    optimized = Flow(FlowConfig(method="fa_aot", opt_level=2)).run(design, library=library)
    print()
    print(optimized.summary())
    print(
        f"cells {optimized.pre_opt_stats.num_cells} -> {optimized.cell_count}, "
        f"area {optimized.pre_opt_stats.area:.0f} -> {optimized.area:.0f}"
    )
    verilog = to_verilog(optimized.netlist, module_name="optimized_top")
    print(f"emitted {len(verilog.splitlines())} lines of structural Verilog")

    # 5. JSON round-trip: optimized netlists can be cached and diffed.
    snapshot = optimized.netlist.to_dict()
    rebuilt = netlist_from_dict(json.loads(json.dumps(snapshot)))
    check_netlists_equivalent(optimized.netlist, rebuilt).assert_ok()
    print(
        f"JSON round-trip ok ({len(snapshot['cells'])} cells, "
        f"{len(json.dumps(snapshot)) // 1024} KiB snapshot)"
    )


if __name__ == "__main__":
    main()
