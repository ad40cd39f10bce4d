"""The compressor-tree record and its one FA/HA step.

Every reducer — FA_AOT, FA_ALP, FA_random and column isolation through
:func:`repro.core.column.reduce_column`, and the Wallace, Dadda and CSA_OPT
baselines — differs only in *which* addends feed each cell.  The cell itself
is built here, by :meth:`CompressorTree.allocate`: the Ds/Dc output
arrivals, the output probabilities and the Ws/Wc switching energy, charged
to the column's :class:`~repro.core.result.ColumnReduction`.  A carry that
falls past the output width is dropped (modulo-2**W semantics) and noted in
the :class:`~repro.core.result.CompressionResult`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bitmatrix.addend import Addend
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.core.result import ColumnReduction, CompressionResult
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist


class CompressorTree:
    """FA/HA cells added to ``netlist`` over ``width`` columns, with their records."""

    def __init__(
        self,
        netlist: Netlist,
        width: int,
        delay_model: Optional[FADelayModel] = None,
        power_model: Optional[FAPowerModel] = None,
    ) -> None:
        self.netlist = netlist
        self.width = width
        self.delay_model = delay_model or FADelayModel()
        self.power_model = power_model or FAPowerModel()
        self.columns = [ColumnReduction(column=index) for index in range(width)]

    def allocate(
        self, chosen: Sequence[Addend], column: int
    ) -> Tuple[Addend, Optional[Addend]]:
        """Add an FA over three addends or an HA over two; return ``(sum, carry)``.

        Both outputs are annotated with their arrival and probability, and
        the cell and its switching energy are charged to ``column``'s record.
        ``carry`` is ``None`` when it falls past the width; the record keeps
        it in ``dropped``.
        """
        record = self.columns[column]
        arrivals = [addend.arrival for addend in chosen]
        if len(chosen) == 3:
            first, second, third = chosen
            cell = self.netlist.add_cell(
                CellType.FA, {"a": first.net, "b": second.net, "cin": third.net}
            )
            sum_arrival, carry_arrival = self.delay_model.fa_arrivals(arrivals)
            p_sum, p_carry = self.power_model.fa_probabilities(
                first.probability, second.probability, third.probability
            )
            energy = self.power_model.fa_switching_energy(p_sum, p_carry)
            record.fa_cells.append(cell)
        else:
            first, second = chosen
            cell = self.netlist.add_cell(CellType.HA, {"a": first.net, "b": second.net})
            sum_arrival, carry_arrival = self.delay_model.ha_arrivals(arrivals)
            p_sum, p_carry = self.power_model.ha_probabilities(
                first.probability, second.probability
            )
            energy = self.power_model.ha_switching_energy(p_sum, p_carry)
            record.ha_cells.append(cell)
        record.switching_energy += energy
        sum_net, carry_net = cell.outputs["s"], cell.outputs["co"]
        self.netlist.annotate(sum_net, arrival=sum_arrival, probability=p_sum)
        self.netlist.annotate(carry_net, arrival=carry_arrival, probability=p_carry)
        total = Addend(sum_net, column, sum_arrival, p_sum, origin="sum")
        carry = Addend(carry_net, column + 1, carry_arrival, p_carry, origin="carry")
        if carry.column < self.width:
            return total, carry
        record.dropped.append(carry)
        return total, None

    def result(
        self,
        policy_name: str,
        ha_style: str,
        remaining: Optional[Sequence[List[Addend]]] = None,
    ) -> CompressionResult:
        """The finished tree; ``remaining`` gives each column's final addends,
        LSB first, when the reducer has not stored them in the records."""
        if remaining is not None:
            for record, addends in zip(self.columns, remaining):
                record.remaining = list(addends)
        notes = []
        dropped = sum(len(record.dropped) for record in self.columns)
        if dropped:
            notes.append(
                f"{dropped} carries beyond column {self.width - 1} were dropped "
                f"(modulo-2**{self.width} semantics)"
            )
        return CompressionResult(
            netlist=self.netlist,
            width=self.width,
            column_reductions=self.columns,
            policy_name=policy_name,
            ha_style=ha_style,
            notes=notes,
        )
