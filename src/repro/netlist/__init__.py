"""Gate-level netlist substrate.

Everything the package synthesizes ultimately becomes a :class:`Netlist` of
bit-level cells (full adders, half adders, simple gates and constants).  The
netlist is the common currency between the allocation algorithms, the static
timing analyzer, the power estimator, the functional simulator and the Verilog
emitter.

Each name loads its submodule on first access (PEP 562), so a layer that
needs only the cell semantics (the technology libraries read
:mod:`repro.netlist.cells`) does not import the netlist core, its
serializer, statistics, validator or Verilog emitter.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.netlist.cells": (
            "CELL_DEFS",
            "CellDef",
            "CellType",
            "cell_input_ports",
            "cell_output_ports",
            "evaluate_cell",
        ),
        "repro.netlist.core": ("Bus", "Cell", "Net", "Netlist"),
        "repro.netlist.serialize": ("netlist_from_dict", "netlist_to_dict"),
        "repro.netlist.stats": ("NetlistStats", "netlist_stats"),
        "repro.netlist.validate": ("validate_netlist",),
        "repro.netlist.verilog": ("to_verilog",),
    },
)

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
