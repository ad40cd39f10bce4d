"""Dead cell / dead net elimination.

A cell is live when it lies in the transitive fanin cone of a primary
output; everything else — unread carries of truncated columns, cones cut
loose by constant folding or CSE — is deleted.  Cells are removed in reverse
topological order so every removal sees load-free outputs, and nets that end
up fully disconnected (no driver, no readers, no interface role) are swept
away afterwards.

A run leaves the netlist free of dead cells and nets, and says so in
:meth:`Netlist.derived_views`; until the next mutation clears that marker,
a run returns at once (the pipeline runs the pass on every iteration).
"""

from __future__ import annotations

from repro.netlist.core import Netlist
from repro.opt.base import RewritePass


class DeadCellEliminationPass(RewritePass):
    """Remove every cell outside the primary outputs' fanin cone."""

    name = "dce"

    def run(self, netlist: Netlist) -> int:
        if netlist.derived_views().get("dce_clean"):
            return 0
        live = {cell.name for cell in netlist.transitive_fanin(netlist.primary_outputs)}
        changed = 0
        for cell in reversed(netlist.topological_cells()):
            if cell.name not in live:
                netlist.remove_cell(cell)
                changed += 1
        # sweep nets orphaned by earlier rewrites (not counted as rewrites:
        # net removal cannot enable further cell-level work)
        for net in list(netlist.nets.values()):
            netlist.discard_net_if_disconnected(net)
        netlist.derived_views()["dce_clean"] = True
        return changed
