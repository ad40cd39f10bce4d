"""Constant folding and propagation.

One topological sweep per invocation: every single-output cell with a
constant or duplicated input has its boolean function evaluated (through
:func:`repro.netlist.cells.evaluate_cell`) over the remaining free inputs;
when the function collapses to a constant, a wire, an inverter or a smaller
two-input gate, the cell is retired in favour of that form.  Because the
sweep is topological, a constant produced early in the sweep propagates
through its whole fanout cone within the same invocation.

Examples of what one sweep rewrites::

    AND2(x, 0)      -> 0            XOR2(x, x)   -> 0
    AND2(x, 1)      -> x            NAND2(x, x)  -> NOT x
    NOR2(x, 1)      -> 0            MUX2(a, a, s)-> a
    XNOR2(x, 0)     -> NOT x        MUX2(a, b, 1)-> b
    AOI21(a, 1, c)  -> NOR2(a, c)   AOI21(a, b, 0) -> NAND2(a, b)
    NOT(0)          -> 1

FA/HA cells are left to :mod:`repro.opt.strength`, which knows how to reduce
both outputs at once.
"""

from __future__ import annotations

from repro.netlist.cells import CellType, cell_input_ports
from repro.netlist.core import Netlist
from repro.opt.base import (
    RewritePass,
    cell_truth_tables,
    classify_truth_table,
    free_input_nets,
    materialize,
    retire_cell,
)


class ConstantFoldPass(RewritePass):
    """Fold constant / duplicated inputs through every single-output cell."""

    name = "constant-fold"

    def run(self, netlist: Netlist) -> int:
        changed = 0
        for cell in netlist.topological_cells():
            if cell.cell_type in (CellType.FA, CellType.HA):
                continue
            if cell.cell_type is CellType.BUF and netlist.is_primary_output(
                cell.outputs["y"]
            ):
                # primary-output anchor: retiring it would just re-create it
                continue
            free, const_ports = free_input_nets(cell)
            # untouched cells: all inputs free and distinct (already minimal)
            if not const_ports and len(free) == len(cell_input_ports(cell.cell_type)):
                continue
            if len(free) > 2:
                continue
            tt = cell_truth_tables(cell, free)["y"]
            spec = classify_truth_table(tt)
            if spec is None:
                continue
            replacement = materialize(netlist, spec, free)
            retire_cell(netlist, cell, {"y": replacement})
            changed += 1
        return changed
