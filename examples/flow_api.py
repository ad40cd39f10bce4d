#!/usr/bin/env python3
"""The unified flow API: FlowConfig + staged Flow, end to end.

This demonstrates the canonical public surface (`repro.api`):

1. build a validated `FlowConfig` — one frozen dataclass holds every knob
   (method, final adder, optimization level, analyses, ...), and the same
   schema drives the CLI flags, the explore sweep axes and the result
   cache key;
2. run the staged `Flow` pipeline and inspect per-stage wall-times and
   artifacts;
3. skip analysis passes (`analyses=("timing",)`) for faster design-space
   sweeps;
4. register a custom analysis pass that becomes a first-class, sweepable
   `analyses` value;
5. round-trip the config through JSON and look at its cache identity.

Run with:  python examples/flow_api.py
"""

import json

from repro.api import Flow, FlowConfig, register_analysis, unregister_analysis
from repro.utils.tables import TextTable


def main() -> None:
    # 1. One config, validated on construction (bad values raise ConfigError).
    config = FlowConfig(method="fa_aot", final_adder="cla", opt_level=2)
    print("config:", json.dumps(config.to_dict(), indent=2))
    print("cache key:", config.cache_key())

    # 2. Run the staged pipeline on a registry design.
    result = Flow(config).run("iir")
    print()
    print(result.summary())
    table = TextTable(["stage", "time ms"], float_digits=3)
    for name, elapsed in result.stage_times.items():
        table.add_row([name, elapsed * 1e3])
    print()
    print(table.render(title="per-stage wall time"))

    # 3. Timing-only analysis: identical netlist, less work per point.
    fast = Flow(FlowConfig(method="fa_aot", analyses=("timing",))).run("iir")
    assert fast.delay_ns == Flow(FlowConfig(method="fa_aot")).run("iir").delay_ns
    assert fast.power is None and fast.stats is None
    print()
    print("timing-only:", fast.summary())

    # 4. A custom analysis pass: registered names are immediately valid
    #    `analyses` values (and CLI choices / sweep options).
    @register_analysis("gate_histogram")
    def gate_histogram(result):
        histogram = {}
        for cell in result.netlist.cells.values():
            histogram[cell.cell_type.name] = histogram.get(cell.cell_type.name, 0) + 1
        return dict(sorted(histogram.items(), key=lambda kv: -kv[1]))

    try:
        custom = Flow(FlowConfig(analyses=("timing", "gate_histogram"))).run("iir")
        top = list(custom.stage_artifacts["gate_histogram"].items())[:4]
        print()
        print("top cell types:", ", ".join(f"{name}x{count}" for name, count in top))
    finally:
        unregister_analysis("gate_histogram")

    # 5. Configs serialize canonically: JSON round-trip is identity, and the
    #    cache key ignores don't-care knobs (the seed of a deterministic
    #    method, validation-only flags, analyses ordering).
    rebuilt = FlowConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    assert FlowConfig(opt_level=2, seed=123).cache_key() == FlowConfig(opt_level=2).cache_key()
    print()
    print("JSON round-trip and canonical cache identity: ok")


if __name__ == "__main__":
    main()
