"""FA/HA strength reduction.

Full and half adders are the workhorses of the compressor tree, and the
matrix construction routinely feeds them constants (truncated columns, CSD
recoding, final-adder padding) or duplicated nets (squarer folding).  This
pass reduces such adders to strictly cheaper forms, handling both outputs
(``s`` and ``co``) simultaneously:

* ``FA(a, b, 0)``  -> ``HA(a, b)``
* ``FA(a, b, 1)``  -> ``s = XNOR2(a, b)``, ``co = OR2(a, b)``
* ``HA(a, 0)``     -> ``s = a``, ``co = 0``
* ``HA(a, 1)``     -> ``s = NOT a``, ``co = a``
* ``FA(a, 0, 1)``  -> ``s = NOT a``, ``co = a``
* ``FA(a, a, c)``  -> ``s = c``,  ``co = a``     (duplicated inputs)
* ``HA(a, a)``     -> ``s = 0``,  ``co = a``
* all-constant adders fold away completely.

The pass runs one topological sweep per invocation; chains (an FA reduced to
an HA whose remaining input then goes constant) converge across the pass
manager's fixpoint iterations.
"""

from __future__ import annotations

from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.opt.base import (
    RewritePass,
    cell_truth_tables,
    classify_truth_table,
    free_input_nets,
    materialize,
    retire_cell,
)


class StrengthReductionPass(RewritePass):
    """Reduce FA/HA cells with constant or duplicated inputs."""

    name = "fa-ha-strength"

    def run(self, netlist: Netlist) -> int:
        changed = 0
        for cell in netlist.topological_cells():
            if cell.cell_type not in (CellType.FA, CellType.HA):
                continue
            free, const_ports = free_input_nets(cell)
            if len(free) > 2:
                continue  # a full FA on three distinct variable inputs
            if cell.cell_type is CellType.HA and len(free) == 2 and not const_ports:
                continue  # an HA on two distinct variable inputs is minimal
            if (
                cell.cell_type is CellType.FA
                and len(free) == 2
                and list(const_ports.values()) == [0]
            ):
                # FA with one constant-0 input is exactly a half adder; check
                # this before the generic classification, which would split
                # the same function into a separate XOR2 + AND2 pair.
                ha = netlist.add_cell(CellType.HA, {"a": free[0], "b": free[1]})
                retire_cell(
                    netlist, cell, {"s": ha.outputs["s"], "co": ha.outputs["co"]}
                )
                changed += 1
                continue
            tables = cell_truth_tables(cell, free)
            specs = {port: classify_truth_table(tt) for port, tt in tables.items()}
            if all(spec is not None for spec in specs.values()):
                # Both outputs collapse to consts / wires / inverters / gates.
                # Cost guard: replacing the adder costs one cell per
                # materialized gate plus one BUF anchor per primary-output
                # port; past two new cells the rewrite inflates the netlist
                # (e.g. XNOR+OR plus anchors for an FA whose outputs are
                # both primary outputs) instead of shrinking it.
                materialized = sum(
                    1 for spec in specs.values() if spec[0] in ("not", "gate")
                )
                anchors = sum(
                    1
                    for port in specs
                    if netlist.is_primary_output(cell.outputs[port])
                )
                if materialized + anchors > 2:
                    continue
                replacements = {
                    port: materialize(netlist, spec, free)
                    for port, spec in specs.items()
                }
                retire_cell(netlist, cell, replacements)
                changed += 1
        return changed
