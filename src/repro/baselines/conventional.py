"""Conventional operator-level (RTL) synthesis baseline.

The paper's "Convent." column stands for the usual two-step flow: every
operator of the RTL description is mapped onto its own module — additions and
subtractions onto carry-propagate adders, multiplications onto multiplier
macros — and logic synthesis then optimizes the resulting gate network.  The
defining structural property is that a carry-propagate adder sits at *every*
operator boundary, which is what makes the conventional design slower and
larger than a globally carry-save one.

This module reproduces that structure:

* operands and intermediate results are ordinary binary words (no carry-save
  signals cross operator boundaries);
* ``+``/``-`` become carry-lookahead adders, ``*`` becomes a multiplier macro
  (Wallace tree + CLA by default — see :mod:`repro.baselines.multipliers`);
* addition/subtraction chains are flattened and rebuilt as balanced operator
  trees, the standard RTL-level timing optimization;
* intermediate widths follow the natural growth of the operation
  (max+1 for add/sub, sum of widths for multiply), capped at the output width
  since the result is taken modulo ``2**W``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.adders.cla import carry_lookahead_adder
from repro.adders.factory import build_final_adder
from repro.baselines.multipliers import unsigned_multiplier
from repro.errors import DesignError, ExpressionError
from repro.expr.ast import Add, Const, Expression, Mul, Neg, Sub, Var
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType
from repro.netlist.core import Bus, Net, Netlist
from repro.tech.library import TechLibrary
from repro.utils.bits import bit_length


class _Operand(NamedTuple):
    """An intermediate word: its bus, and whether its MSB is a sign bit."""

    bus: Bus
    signed: bool

    @property
    def width(self) -> int:
        return self.bus.width


@dataclass
class ConventionalResult:
    """Netlist produced by the conventional operator-level flow."""

    netlist: Netlist
    output_bus: Bus
    output_width: int
    adder_kind: str
    multiplier_style: str
    operator_count: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class _ConventionalBuilder:
    """Recursive operator-level netlist construction over the expression AST."""

    def __init__(
        self,
        netlist: Netlist,
        signals: Mapping[str, SignalSpec],
        output_width: int,
        adder_kind: str,
        multiplier_style: str,
        balance_operator_trees: bool,
    ) -> None:
        self.netlist = netlist
        self.signals = signals
        self.output_width = output_width
        self.adder_kind = adder_kind
        self.multiplier_style = multiplier_style
        self.balance = balance_operator_trees
        self.input_buses: Dict[str, Bus] = {}
        self.operator_count: Dict[str, int] = {"add": 0, "sub": 0, "mul": 0}
        self._name_counter = 0

    # ------------------------------------------------------------ primitives
    def _fresh_name(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}_{self._name_counter}"

    def _cap(self, width: int) -> int:
        return max(1, min(width, self.output_width))

    def _const_bus(self, value: int, width: int) -> Bus:
        bits = [
            self.netlist.const((value >> i) & 1) for i in range(width)
        ]
        return Bus(self._fresh_name("const"), bits)

    def _extend(self, operand: _Operand, width: int) -> Bus:
        """Zero- or sign-extend an operand's bus to ``width`` bits."""
        if width <= operand.width:
            return Bus(operand.bus.name, operand.bus.nets[:width])
        if operand.signed:
            fill: Net = operand.bus.nets[-1]
        else:
            fill = self.netlist.const(0)
        return Bus(operand.bus.name, list(operand.bus.nets) + [fill] * (width - operand.width))

    def _invert(self, bus: Bus) -> List[Net]:
        inverted: List[Net] = []
        for net in bus.nets:
            if net.is_constant:
                inverted.append(self.netlist.const(1 - (net.const_value or 0)))
            else:
                cell = self.netlist.add_cell(CellType.NOT, {"a": net})
                inverted.append(cell.outputs["y"])
        return inverted

    def _add(self, left: _Operand, right: _Operand) -> _Operand:
        width = self._cap(max(left.width, right.width) + 1)
        bus_a = self._extend(left, width)
        bus_b = self._extend(right, width)
        self.operator_count["add"] += 1
        result = build_final_adder(
            self.netlist,
            bus_a.nets,
            bus_b.nets,
            width,
            kind=self.adder_kind,
            name=self._fresh_name("add"),
        )
        return _Operand(result, left.signed or right.signed)

    def _sub(self, left: _Operand, right: _Operand) -> _Operand:
        width = self._cap(max(left.width, right.width) + 1)
        bus_a = self._extend(left, width)
        bus_b = self._extend(right, width)
        self.operator_count["sub"] += 1
        result = carry_lookahead_adder(
            self.netlist,
            bus_a.nets,
            self._invert(bus_b),
            width,
            name=self._fresh_name("sub"),
            carry_in=self.netlist.const(1),
        )
        return _Operand(result, True)

    def _mul(self, left: _Operand, right: _Operand) -> _Operand:
        width = self._cap(left.width + right.width)
        self.operator_count["mul"] += 1
        if left.signed or right.signed:
            bus_a = self._extend(left, width)
            bus_b = self._extend(right, width)
            signed = True
        else:
            bus_a, bus_b = left.bus, right.bus
            signed = False
        result = unsigned_multiplier(
            self.netlist,
            bus_a,
            bus_b,
            width,
            style=self.multiplier_style,
            name=self._fresh_name("mul"),
        )
        return _Operand(result, signed)

    def _balanced_sum(self, operands: List[_Operand]) -> _Operand:
        level = list(operands)
        while len(level) > 1:
            next_level: List[_Operand] = []
            for index in range(0, len(level) - 1, 2):
                next_level.append(self._add(level[index], level[index + 1]))
            if len(level) % 2:
                next_level.append(level[-1])
            level = next_level
        return level[0]

    # --------------------------------------------------------------- recurse
    def _flatten_sum(self, node: Expression, sign: int, out: List[Tuple[int, Expression]]) -> None:
        if isinstance(node, Add):
            self._flatten_sum(node.left, sign, out)
            self._flatten_sum(node.right, sign, out)
        elif isinstance(node, Sub):
            self._flatten_sum(node.left, sign, out)
            self._flatten_sum(node.right, -sign, out)
        elif isinstance(node, Neg):
            self._flatten_sum(node.operand, -sign, out)
        else:
            out.append((sign, node))

    def build(self, node: Expression) -> _Operand:
        """Build the netlist for ``node`` and return its word operand."""
        if isinstance(node, Var):
            return _Operand(self.input_buses[node.name], False)
        if isinstance(node, Const):
            if node.value >= 0:
                return _Operand(self._const_bus(node.value, bit_length(node.value)), False)
            return _Operand(
                self._const_bus(node.value % (1 << self.output_width), self.output_width),
                True,
            )
        if isinstance(node, Mul):
            return self._mul(self.build(node.left), self.build(node.right))
        if isinstance(node, (Add, Sub, Neg)):
            if not self.balance:
                if isinstance(node, Add):
                    return self._add(self.build(node.left), self.build(node.right))
                if isinstance(node, Sub):
                    return self._sub(self.build(node.left), self.build(node.right))
                zero = _Operand(self._const_bus(0, 1), False)
                return self._sub(zero, self.build(node.operand))
            terms: List[Tuple[int, Expression]] = []
            self._flatten_sum(node, 1, terms)
            positives = [self.build(expr) for sign, expr in terms if sign > 0]
            negatives = [self.build(expr) for sign, expr in terms if sign < 0]
            if not positives:
                positives = [_Operand(self._const_bus(0, 1), False)]
            positive_sum = self._balanced_sum(positives)
            if not negatives:
                return positive_sum
            negative_sum = self._balanced_sum(negatives)
            return self._sub(positive_sum, negative_sum)
        raise ExpressionError(f"conventional flow cannot handle node {type(node).__name__}")


def conventional_synthesis(
    expression: Expression,
    signals: Mapping[str, SignalSpec],
    output_width: int,
    library: Optional[TechLibrary] = None,
    adder_kind: str = "cla",
    multiplier_style: str = "wallace_cpa",
    balance_operator_trees: bool = True,
    name: str = "conventional",
) -> ConventionalResult:
    """Synthesize ``expression`` with the conventional operator-level flow."""
    if output_width <= 0:
        raise DesignError(f"output width must be positive, got {output_width}")
    netlist = Netlist(name)
    builder = _ConventionalBuilder(
        netlist,
        signals,
        output_width,
        adder_kind=adder_kind,
        multiplier_style=multiplier_style,
        balance_operator_trees=balance_operator_trees,
    )

    for variable in expression.variables():
        if variable not in signals:
            raise DesignError(f"expression uses variable {variable!r} with no SignalSpec")
        spec = signals[variable]
        bus = netlist.add_input_bus(variable, spec.width)
        for index, net in enumerate(bus.nets):
            netlist.annotate(
                net,
                arrival=spec.arrival_of(index),
                probability=spec.probability_of(index),
            )
        builder.input_buses[variable] = bus

    result = builder.build(expression)
    output = builder._extend(result, output_width)
    output_bus = Bus("f", output.nets)
    netlist.set_output_bus(output_bus)

    return ConventionalResult(
        netlist=netlist,
        output_bus=output_bus,
        output_width=output_width,
        adder_kind=adder_kind,
        multiplier_style=multiplier_style,
        operator_count=dict(builder.operator_count),
        notes=[],
    )
