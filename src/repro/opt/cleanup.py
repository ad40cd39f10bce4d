"""Wire-level cleanups: BUF chain collapsing and double-NOT cancellation.

* every ``BUF`` whose output is not a primary output is transparent — its
  readers are rewired straight to its input (chains collapse across the pass
  manager's fixpoint iterations);
* ``NOT(NOT(x))`` cancels: readers of the outer inverter are rewired to
  ``x`` (the inner inverter dies in dead-cell elimination once its remaining
  fanout is gone).

BUFs that drive primary outputs are kept: they are the anchors that preserve
the netlist interface when an output's original driver was optimized away.
"""

from __future__ import annotations

from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.opt.base import RewritePass, retire_cell


class CleanupPass(RewritePass):
    """Collapse BUF chains and cancel double inverters."""

    name = "buf-not-cleanup"

    def run(self, netlist: Netlist) -> int:
        changed = 0
        for cell in netlist.topological_cells():
            if cell.cell_type is CellType.BUF:
                if netlist.is_primary_output(cell.outputs["y"]):
                    continue
                retire_cell(netlist, cell, {"y": cell.inputs["a"]})
                changed += 1
            elif cell.cell_type is CellType.NOT:
                driver = cell.inputs["a"].driver
                if driver is None or driver[0].cell_type is not CellType.NOT:
                    continue
                retire_cell(netlist, cell, {"y": driver[0].inputs["a"]})
                changed += 1
        return changed
