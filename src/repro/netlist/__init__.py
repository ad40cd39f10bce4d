"""Gate-level netlist substrate.

Everything the package synthesizes ultimately becomes a :class:`Netlist` of
bit-level cells (full adders, half adders, simple gates and constants).  The
netlist is the common currency between the allocation algorithms, the static
timing analyzer, the power estimator, the functional simulator and the Verilog
emitter.
"""

from repro.netlist.cells import (
    CELL_DEFS,
    CellDef,
    CellType,
    cell_input_ports,
    cell_output_ports,
    evaluate_cell,
)
from repro.netlist.core import Bus, Cell, Net, Netlist
from repro.netlist.serialize import netlist_from_dict, netlist_to_dict
from repro.netlist.stats import NetlistStats, netlist_stats
from repro.netlist.validate import validate_netlist
from repro.netlist.verilog import to_verilog

__all__ = [
    "CELL_DEFS",
    "CellDef",
    "CellType",
    "cell_input_ports",
    "cell_output_ports",
    "evaluate_cell",
    "Bus",
    "Cell",
    "Net",
    "Netlist",
    "NetlistStats",
    "netlist_stats",
    "netlist_from_dict",
    "netlist_to_dict",
    "validate_netlist",
    "to_verilog",
]
