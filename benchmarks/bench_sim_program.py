"""Benchmark: compiled packed-sim programs vs the interpreted sweep.

The packed evaluator now lowers the netlist once into a
:class:`repro.sim.program.SimProgram` (one slot per net, one closure per
cell) and replays that program for every chunk, instead of re-walking the
topological order and re-dispatching on cell type per evaluation.  Two
contracts are pinned here:

* **amortization** — across many replays of one netlist the program
  compiles exactly once; every further chunk is a generation-keyed cache
  hit (asserted via the ``sim.program_compiles`` / ``sim.program_cache_hits``
  counters, not timings, so the check is load-independent);
* **replay speed** — replaying the compiled program beats re-walking the
  netlist per chunk by a healthy margin on a mid-size design.
"""

from __future__ import annotations

import time

from benchmarks.conftest import save_report
from repro import obs
from repro.designs.registry import get_design
from repro.flows.synthesis import synthesize
from repro.netlist.cells import cell_input_ports, cell_output_ports
from repro.sim.program import OP_FACTORIES, cached_program
from repro.sim.vectors import random_vectors
from repro.utils.tables import TextTable

REPLAYS = 120
CHUNK_VECTORS = 256


def _packed_inputs(netlist, vectors):
    packed = {}
    for name, bus in netlist.input_buses.items():
        for index, net in enumerate(bus.nets):
            word = 0
            for k, vector in enumerate(vectors):
                word |= ((vector[name] >> index) & 1) << k
            packed[net.name] = word
    return packed


def _interpreted_sweep(netlist, packed, mask):
    """The pre-compilation packed evaluator: walk, look up, dispatch.

    Every cell's packed op is bound to net *names* and applied to a
    name-keyed dict, so each chunk pays the per-cell port lookups and the
    type dispatch the compiled program does once.
    """
    values = dict(packed)
    for net in netlist.nets.values():
        if net.is_constant:
            values[net.name] = mask if net.const_value else 0
    for cell in netlist.topological_cells():
        ins = tuple(cell.inputs[p].name for p in cell_input_ports(cell.cell_type))
        outs = tuple(cell.outputs[p].name for p in cell_output_ports(cell.cell_type))
        OP_FACTORIES[cell.cell_type](ins, outs)(values, mask)
    return values


def test_bench_sim_program_amortization_and_speed():
    design = get_design("iir")
    result = synthesize(design, method="fa_aot")
    netlist = result.netlist
    vectors = random_vectors(design.signals, CHUNK_VECTORS, seed=2000)
    packed = _packed_inputs(netlist, vectors)
    mask = (1 << CHUNK_VECTORS) - 1

    # start cold so the compile is counted
    netlist.derived_views().pop("sim_program", None)
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        start = time.perf_counter()
        for _ in range(REPLAYS):
            program = cached_program(netlist)
            slots = program.run_packed(packed, mask)
        compiled_time = time.perf_counter() - start
    compiled_values = program.values_dict(slots)

    compiles = tracer.counters.get("sim.program_compiles", 0.0)
    hits = tracer.counters.get("sim.program_cache_hits", 0.0)
    assert compiles == 1.0, f"expected one compile across {REPLAYS} replays, got {compiles}"
    assert hits == REPLAYS - 1

    start = time.perf_counter()
    for _ in range(REPLAYS):
        interpreted_values = _interpreted_sweep(netlist, packed, mask)
    interpreted_time = time.perf_counter() - start

    assert compiled_values == interpreted_values  # bit-exact agreement
    speedup = interpreted_time / compiled_time if compiled_time else 0.0

    table = TextTable(["quantity", "value"], float_digits=4)
    table.add_row(["replays x vectors", f"{REPLAYS} x {CHUNK_VECTORS}"])
    table.add_row(["program compiles", int(compiles)])
    table.add_row(["program cache hits", int(hits)])
    table.add_row(["interpreted sweep (s)", interpreted_time])
    table.add_row(["compiled replay (s)", compiled_time])
    table.add_row(["speedup", speedup])
    save_report(
        "bench_sim_program",
        table.render(
            title=f"Compiled sim program vs interpreted sweep "
            f"({design.name}, {result.cell_count} cells)"
        ),
    )

    # conservative floor: observed ~2.5-4x; 1.5x keeps CI robust under load
    assert speedup > 1.5, f"compiled replay only {speedup:.2f}x over interpreted sweep"
