"""Stand-alone multiplier generators used by the conventional RTL baseline.

A conventional flow maps every ``*`` operator of the RTL onto a multiplier
macro whose output is an ordinary binary number — i.e. a carry-propagate adder
sits at the end of every multiplier.  Two macro styles are provided:

* ``"wallace_cpa"`` (default): AND-array partial products, classic Wallace
  reduction, carry-lookahead final adder.  This is what a synthesis library
  multiplier looks like and is the fair conventional reference.
* ``"array"``: AND-array partial products accumulated row by row with
  ripple-carry adders — the slower, smaller schoolbook array multiplier, used
  by the ablation benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.adders.factory import build_final_adder
from repro.adders.ripple import ripple_carry_adder
from repro.bitmatrix.addend import Addend
from repro.bitmatrix.matrix import AddendMatrix
from repro.baselines.wallace import wallace_reduce
from repro.choices import MULTIPLIER_STYLES
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.errors import NetlistError
from repro.netlist.cells import CellType
from repro.netlist.core import Bus, Net, Netlist

def _partial_product_net(netlist: Netlist, bit_a: Net, bit_b: Net) -> Net:
    """AND of two bits with constant folding."""
    if bit_a.is_constant:
        return bit_b if bit_a.const_value == 1 else netlist.const(0)
    if bit_b.is_constant:
        return bit_a if bit_b.const_value == 1 else netlist.const(0)
    return netlist.add_cell(CellType.AND2, {"a": bit_a, "b": bit_b}).outputs["y"]


def unsigned_multiplier(
    netlist: Netlist,
    operand_a: Bus,
    operand_b: Bus,
    result_width: int,
    style: str = "wallace_cpa",
    final_adder: str = "cla",
    name: str = "prod",
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
    notes: Optional[List[str]] = None,
) -> Bus:
    """Multiply two unsigned buses, truncating the result to ``result_width``.

    ``notes``, when given, receives the Wallace tree's notes: how many
    carries it dropped past ``result_width``.
    """
    if style not in MULTIPLIER_STYLES:
        raise NetlistError(
            f"unknown multiplier style {style!r}; expected one of {MULTIPLIER_STYLES}"
        )
    if result_width <= 0:
        raise NetlistError(f"multiplier result width must be positive, got {result_width}")

    if style == "array":
        return _array_multiplier(netlist, operand_a, operand_b, result_width, name)

    matrix = AddendMatrix(result_width, name=f"{name}_pp")
    for i, bit_a in enumerate(operand_a.nets):
        for j, bit_b in enumerate(operand_b.nets):
            column = i + j
            if column >= result_width:
                continue
            product = _partial_product_net(netlist, bit_a, bit_b)
            if product.is_constant and product.const_value == 0:
                continue
            matrix.add(Addend(product, column, origin="pp"))
    reduction = wallace_reduce(netlist, matrix, delay_model, power_model)
    if notes is not None:
        notes.extend(reduction.notes)
    row_nets = [[a.net if a is not None else None for a in row] for row in reduction.rows]
    return build_final_adder(
        netlist, row_nets[0], row_nets[1], result_width, kind=final_adder, name=name
    )


def _array_multiplier(
    netlist: Netlist,
    operand_a: Bus,
    operand_b: Bus,
    result_width: int,
    name: str,
) -> Bus:
    """Schoolbook array multiplier: one ripple-carry accumulation per row."""
    zero = netlist.const(0)
    accumulator: List[Net] = [zero] * result_width
    for j, bit_b in enumerate(operand_b.nets):
        if j >= result_width:
            break
        row: List[Optional[Net]] = [None] * result_width
        for i, bit_a in enumerate(operand_a.nets):
            column = i + j
            if column >= result_width:
                continue
            product = _partial_product_net(netlist, bit_a, bit_b)
            row[column] = product
        partial = ripple_carry_adder(
            netlist, accumulator, row, result_width, name=f"{name}_acc{j}"
        )
        accumulator = list(partial.nets)
    return Bus(name, accumulator)
