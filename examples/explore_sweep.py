#!/usr/bin/env python3
"""Design-space exploration: sweep methods x final adders, analyse the result.

This drives the ``repro.explore`` subsystem end to end:

1. declare a sweep over two designs, three allocation methods and two final
   adders, with a constraint filter;
2. run it on two worker processes with an on-disk result cache (run the script
   twice — the second run is answered from the cache);
3. extract the Pareto front over (delay, area, tree energy), the fastest
   point per design and the delay-improvement matrix vs Wallace;
4. write a JSON artifact with one record per sweep point.

Run with:  python examples/explore_sweep.py
"""

from repro.explore import (
    SweepSpec,
    best_per_design,
    improvement_matrix,
    pareto_front_by_design,
    run_sweep,
    write_json,
)
from repro.explore.io import sweep_report


def main() -> None:
    # 1. The sweep: a cartesian grid plus a constraint filter.  A point is a
    #    design name plus its validated FlowConfig, cheap to expand and inspect.
    spec = SweepSpec(
        designs=["x2_plus_x_plus_y", "square_of_sum"],
        methods=["fa_aot", "wallace", "dadda"],
        final_adders=["cla", "ripple"],
        # skip the slowest combination to show constraint filtering
        constraints=[
            lambda p: not (p.config.method == "wallace" and p.config.final_adder == "ripple")
        ],
    )
    print(f"expanded {len(spec.expand())} sweep points")

    # 2. Execute: 2 worker processes, caching results under .sweep-cache.
    #    A failing point would be captured per-point, not abort the sweep.
    sweep = run_sweep(spec, jobs=2, cache=".sweep-cache")
    print(sweep_report(sweep, pareto=False))

    # 3. Analysis over the metric records.
    print()
    print("Pareto-optimal points per design (delay, area, tree energy):")
    for front in pareto_front_by_design(sweep.records).values():
        for record in front:
            print(
                f"  {record['design_name']:<18} {record['method']:<8} "
                f"{record['final_adder']:<7} delay={record['delay_ns']:.3f} "
                f"area={record['area']:.0f} E_tree={record['tree_energy']:.3f}"
            )

    print()
    print("Fastest configuration per design:")
    for design, record in best_per_design(sweep.records, "delay_ns").items():
        print(f"  {design:<18} {record['method']}/{record['final_adder']}")

    print()
    print("Delay improvement vs Wallace (percent):")
    for design, methods in improvement_matrix(sweep.records, "wallace").items():
        row = ", ".join(f"{m}: {pct:+.1f}%" for m, pct in sorted(methods.items()))
        print(f"  {design:<18} {row}")

    # 4. The JSON artifact (one record per point, plus a run summary).
    path = write_json(sweep, "explore_sweep.json")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
