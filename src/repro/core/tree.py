"""The compressor-tree column model, its one FA/HA step, and materialization.

Every reducer — FA_AOT, FA_ALP, FA_random and column isolation through
:mod:`repro.core.column`, and the Wallace, Dadda and CSA_OPT baselines —
differs only in *which* addends feed each cell, chosen from arrival,
probability, origin and creation order alone.  So the reducers plan on
:class:`CompressorTree`, which needs no netlist: its outputs are addends
whose net is still ``None``, and the plan is a
:class:`~repro.core.result.CompressionResult` without a netlist until
:func:`materialize` builds its cells.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bitmatrix.addend import Addend
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel, fa_output_probabilities, ha_output_probabilities
from repro.core.result import ColumnReduction, CompressionResult
from repro.errors import NetlistError
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist


class CompressorTree:
    """The FA/HA steps of one tree over ``width`` columns, with their records."""

    def __init__(
        self,
        width: int,
        delay_model: Optional[FADelayModel] = None,
        power_model: Optional[FAPowerModel] = None,
    ) -> None:
        self.width = width
        self.columns = [ColumnReduction(column=index) for index in range(width)]
        #: ``(column, inputs, sum, carry)`` in creation order; a step without
        #: inputs is SC_LP's pseudo logic-0, which is no cell
        self.steps: List[Tuple] = []
        # the models' formulas, bound once per tree
        delay, power = delay_model or FADelayModel(), power_model or FAPowerModel()
        self._fa_arrivals, self._ha_arrivals = delay.fa_arrivals, delay.ha_arrivals
        self._fa_energy, self._ha_energy = power.fa_switching_energy, power.ha_switching_energy

    def allocate(
        self, chosen: Sequence[Addend], column: int
    ) -> Tuple[Addend, Optional[Addend]]:
        """Plan an FA over three addends or an HA over two; return ``(sum, carry)``.

        The outputs carry their arrival and probability, and the switching
        energy is charged to ``column``'s record.  ``carry`` is ``None`` when
        it falls past the width (the record keeps it in ``dropped``).
        """
        record = self.columns[column]
        if len(chosen) == 3:
            first, second, third = chosen
            sum_arrival, carry_arrival = self._fa_arrivals(
                (first.arrival, second.arrival, third.arrival)
            )
            p_sum, p_carry = fa_output_probabilities(
                first.probability, second.probability, third.probability
            )
            record.switching_energy += self._fa_energy(p_sum, p_carry)
            record.fa_count += 1
        else:
            first, second = chosen
            sum_arrival, carry_arrival = self._ha_arrivals((first.arrival, second.arrival))
            p_sum, p_carry = ha_output_probabilities(first.probability, second.probability)
            record.switching_energy += self._ha_energy(p_sum, p_carry)
            record.ha_count += 1
        total = Addend(None, column, sum_arrival, p_sum, "sum")
        carry = Addend(None, column + 1, carry_arrival, p_carry, "carry")
        self.steps.append((column, chosen, total, carry))
        if column + 1 < self.width:
            return total, carry
        record.dropped.append(carry)
        return total, None

    def zero(self, column: int) -> Addend:
        """SC_LP's pseudo logic-0 addend for ``column`` (the netlist's ``const0``)."""
        zero = Addend(None, column, 0.0, 0.0, origin="pseudo_zero")
        self.steps.append((column, (), zero, None))
        return zero

    def result(
        self,
        netlist: Optional[Netlist],
        policy_name: str,
        ha_style: str,
        remaining: Optional[Sequence[List[Addend]]] = None,
    ) -> CompressionResult:
        """The tree built into ``netlist``, or its plan when that is ``None``;
        ``remaining`` gives each column's final addends, LSB first, when the
        reducer has not stored them in the records."""
        if remaining is not None:
            for record, addends in zip(self.columns, remaining):
                record.remaining = list(addends)
        dropped = sum(len(record.dropped) for record in self.columns)
        note = f"{dropped} carries beyond column {self.width - 1} were dropped"
        notes = [f"{note} (modulo-2**{self.width} semantics)"] if dropped else []
        plan = CompressionResult(
            netlist=None,
            width=self.width,
            column_reductions=self.columns,
            policy_name=policy_name,
            ha_style=ha_style,
            notes=notes,
            steps=self.steps,
        )
        return plan if netlist is None else materialize(plan, netlist)


def materialize(plan: CompressionResult, netlist: Netlist) -> CompressionResult:
    """Build ``plan``'s cells into ``netlist``, in plan order; return the tree.

    The input nets the plan takes from outside are checked once, before any
    cell is built.  Cells and nets get the names :meth:`Netlist.add_cell`
    would give them, output nets their arrival and probability at creation,
    planned addends their nets, and the netlist one generation bump.
    """
    produced = set()
    for _, inputs, total, carry in plan.steps:
        for addend in inputs:
            if id(addend) not in produced and not (addend.net and netlist.owns(addend.net)):
                name = addend.net.name if addend.net else None
                raise NetlistError(
                    f"net {name!r} of a column-{addend.column} addend does not belong "
                    f"to netlist {netlist.name!r} and is no output of the plan"
                )
        produced.update((id(total), id(carry)))

    build, records = netlist.build_cell, plan.column_reductions
    for column, inputs, total, carry in plan.steps:
        if not inputs:
            total.net = netlist.const(0)
            continue
        annotations = (
            {"arrival": total.arrival, "probability": total.probability},
            {"arrival": carry.arrival, "probability": carry.probability},
        )
        if len(inputs) == 3:
            first, second, third = inputs
            ports = {"a": first.net, "b": second.net, "cin": third.net}
            cell = build(CellType.FA, ports, annotations=annotations)
            records[column].fa_cells.append(cell)
        else:
            first, second = inputs
            cell = build(CellType.HA, {"a": first.net, "b": second.net}, annotations=annotations)
            records[column].ha_cells.append(cell)
        total.net, carry.net = cell.outputs["s"], cell.outputs["co"]
    netlist.touch()
    plan.netlist = netlist
    return plan
