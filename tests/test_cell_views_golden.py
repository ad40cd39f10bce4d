"""Byte-exact pin of every derived cell view on a netlist using all cell types.

One fixed netlist instantiates each :class:`CellType` once, chained so that
later cells read earlier cells' outputs.  Three views of it are compared
byte for byte against files under ``tests/golden/``:

* ``all_cells.v`` — the structural Verilog from :func:`to_verilog`
  (primitive gates, helper-module instances and helper-module bodies);
* ``all_cells.sim`` — the compiled :attr:`SimProgram.source`;
* ``all_cells_prob.txt`` — :func:`propagate_probabilities` under
  non-trivial input probabilities, one ``net repr(p)`` line per net.

Regenerate (only with a stated reason) with::

    PYTHONPATH=src python tests/test_cell_views_golden.py --bless
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.netlist.verilog import to_verilog
from repro.power.probability import propagate_probabilities
from repro.sim.program import compile_netlist_program

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: input probabilities chosen away from 0.5 so every probability rule shows
INPUT_PROBABILITIES = {"x[0]": 0.1, "x[1]": 0.35, "x[2]": 0.6, "x[3]": 0.85, "c": 0.27}


def all_cells_netlist() -> Netlist:
    """One instance of every cell type, each reading earlier cells' outputs."""
    netlist = Netlist("all_cells")
    x = netlist.add_input_bus("x", 4)
    c = netlist.add_input("c")
    fa = netlist.add_cell(CellType.FA, {"a": x[0], "b": x[1], "cin": c}, name="fa")
    ha = netlist.add_cell(CellType.HA, {"a": x[2], "b": fa.outputs["s"]}, name="ha")
    s, co, hs, hc = fa.outputs["s"], fa.outputs["co"], ha.outputs["s"], ha.outputs["co"]
    two_input = {}
    for cell_type, (a, b) in (
        (CellType.AND2, (x[3], co)),
        (CellType.NAND2, (hs, x[0])),
        (CellType.OR2, (hc, x[2])),
        (CellType.NOR2, (s, x[3])),
        (CellType.XOR2, (co, hs)),
        (CellType.XNOR2, (x[1], hc)),
    ):
        cell = netlist.add_cell(cell_type, {"a": a, "b": b}, name=cell_type.value.lower())
        two_input[cell_type] = cell.outputs["y"]
    inv = netlist.add_cell(CellType.NOT, {"a": two_input[CellType.AND2]}, name="inv")
    buf = netlist.add_cell(CellType.BUF, {"a": two_input[CellType.OR2]}, name="buf")
    mux = netlist.add_cell(
        CellType.MUX2,
        {"a": two_input[CellType.NAND2], "b": inv.outputs["y"], "sel": x[2]},
        name="mux",
    )
    aoi21 = netlist.add_cell(
        CellType.AOI21,
        {"a": two_input[CellType.NOR2], "b": buf.outputs["y"], "c": x[0]},
        name="aoi21",
    )
    oai21 = netlist.add_cell(
        CellType.OAI21,
        {"a": two_input[CellType.XOR2], "b": mux.outputs["y"], "c": c},
        name="oai21",
    )
    aoi22 = netlist.add_cell(
        CellType.AOI22,
        {
            "a": two_input[CellType.XNOR2],
            "b": x[1],
            "c": aoi21.outputs["y"],
            "d": oai21.outputs["y"],
        },
        name="aoi22",
    )
    xor3 = netlist.add_cell(
        CellType.XOR3,
        {"a": aoi22.outputs["y"], "b": x[3], "c": mux.outputs["y"]},
        name="xor3",
    )
    maj3 = netlist.add_cell(
        CellType.MAJ3,
        {"a": xor3.outputs["y"], "b": aoi21.outputs["y"], "c": netlist.const(1)},
        name="maj3",
    )
    for net in (maj3.outputs["y"], xor3.outputs["y"], hc, co):
        netlist.set_output(net)
    return netlist


def cell_views():
    """``{golden file name: text}`` of the three pinned views."""
    netlist = all_cells_netlist()
    for name, probability in INPUT_PROBABILITIES.items():
        netlist.annotate(netlist.nets[name], probability=probability)
    probabilities = propagate_probabilities(netlist).probabilities
    return {
        "all_cells.v": to_verilog(netlist),
        "all_cells.sim": compile_netlist_program(netlist).source,
        "all_cells_prob.txt": "".join(
            f"{name} {value!r}\n" for name, value in probabilities.items()
        ),
    }


def test_netlist_uses_every_cell_type():
    types = {cell.cell_type for cell in all_cells_netlist().cells.values()}
    assert types == set(CellType)


def test_cell_views_match_golden():
    for filename, text in cell_views().items():
        golden = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
        assert text == golden, f"{filename} drifted from tests/golden/{filename}"


if __name__ == "__main__":
    if "--bless" not in sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cell_views_golden.py --bless")
    for filename, text in cell_views().items():
        (GOLDEN_DIR / filename).write_text(text, encoding="utf-8")
        print(f"wrote tests/golden/{filename}")
