"""Single-column FA/HA allocation — the inner loop shared by SC_T and SC_LP.

The paper's two single-column procedures have the same skeleton and differ
only in (a) which addends feed each FA and (b) how the half adder needed to
end the column with exactly two addends is modelled:

* ``SC_T`` (timing): while more than three addends remain, allocate an FA on
  the three selected addends; when exactly three remain, allocate an HA on two
  of them.
* ``SC_LP`` (power): when the column has an odd number of addends, a pseudo
  "logic 0" addend is added up front; FAs are then allocated on three selected
  addends until two remain, and an FA that consumes the pseudo zero is
  realised as an HA.

Both are expressed here by :func:`reduce_column` with an ``ha_style`` switch.
Carries produced for the next column are returned to the caller (the tree
builder), which is what lets column *j*'s carries participate in column
*j+1*'s reduction — the "column interaction" that distinguishes the paper's
algorithm from per-column-isolated reduction (Figure 2(b) vs 2(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence

from repro.bitmatrix.addend import Addend
from repro.core.delay_model import FADelayModel
from repro.core.policies import SelectionPolicy
from repro.core.power_model import FAPowerModel
from repro.errors import AllocationError
from repro.netlist.cells import CellType
from repro.netlist.core import Cell, Netlist

#: ha_style value for the SC_T behaviour (HA on the last pair of three)
HA_STYLE_LAST_PAIR = "last_pair"
#: ha_style value for the SC_LP behaviour (pseudo logic-0 addend)
HA_STYLE_PSEUDO_ZERO = "pseudo_zero"

_VALID_HA_STYLES = (HA_STYLE_LAST_PAIR, HA_STYLE_PSEUDO_ZERO)


@dataclass
class ColumnReduction:
    """Result of reducing one column to at most two addends."""

    column: int
    remaining: List[Addend]
    carries: List[Addend]
    fa_cells: List[Cell] = field(default_factory=list)
    ha_cells: List[Cell] = field(default_factory=list)
    switching_energy: float = 0.0

    @property
    def fa_count(self) -> int:
        """Number of full adders allocated for this column."""
        return len(self.fa_cells)

    @property
    def ha_count(self) -> int:
        """Number of half adders allocated for this column."""
        return len(self.ha_cells)

    def sum_addends(self) -> List[Addend]:
        """Sum-output addends produced in this column, in creation order."""
        return [a for a in self.remaining if a.origin == "sum"]


def allocate_fa(
    netlist: Netlist,
    chosen: Sequence[Addend],
    column: int,
    delay_model: FADelayModel,
    power_model: FAPowerModel,
) -> tuple:
    """Instantiate an FA over three addends; return (sum, carry, cell, energy).

    Shared by the column reducer and by the baseline reducers (Wallace, Dadda,
    word-level CSA) so that every method pays for FAs with the same delay and
    power bookkeeping.
    """
    cell = netlist.add_cell(
        CellType.FA,
        {"a": chosen[0].net, "b": chosen[1].net, "cin": chosen[2].net},
    )
    arrivals = [a.arrival for a in chosen]
    sum_arrival, carry_arrival = delay_model.fa_arrivals(arrivals)
    p_sum, p_carry = power_model.fa_probabilities(
        chosen[0].probability, chosen[1].probability, chosen[2].probability
    )
    sum_net = cell.outputs["s"]
    carry_net = cell.outputs["co"]
    netlist.annotate(sum_net, arrival=sum_arrival, probability=p_sum)
    netlist.annotate(carry_net, arrival=carry_arrival, probability=p_carry)
    sum_addend = Addend(sum_net, column, sum_arrival, p_sum, origin="sum")
    carry_addend = Addend(carry_net, column + 1, carry_arrival, p_carry, origin="carry")
    energy = power_model.fa_switching_energy(p_sum, p_carry)
    return sum_addend, carry_addend, cell, energy


def allocate_ha(
    netlist: Netlist,
    chosen: Sequence[Addend],
    column: int,
    delay_model: FADelayModel,
    power_model: FAPowerModel,
) -> tuple:
    """Instantiate an HA over two addends; return (sum, carry, cell, energy)."""
    cell = netlist.add_cell(CellType.HA, {"a": chosen[0].net, "b": chosen[1].net})
    arrivals = [a.arrival for a in chosen]
    sum_arrival, carry_arrival = delay_model.ha_arrivals(arrivals)
    p_sum, p_carry = power_model.ha_probabilities(
        chosen[0].probability, chosen[1].probability
    )
    sum_net = cell.outputs["s"]
    carry_net = cell.outputs["co"]
    netlist.annotate(sum_net, arrival=sum_arrival, probability=p_sum)
    netlist.annotate(carry_net, arrival=carry_arrival, probability=p_carry)
    sum_addend = Addend(sum_net, column, sum_arrival, p_sum, origin="sum")
    carry_addend = Addend(carry_net, column + 1, carry_arrival, p_carry, origin="carry")
    energy = power_model.ha_switching_energy(p_sum, p_carry)
    return sum_addend, carry_addend, cell, energy


def reduce_column(
    netlist: Netlist,
    addends: Sequence[Addend],
    column: int,
    policy: SelectionPolicy,
    delay_model: FADelayModel,
    power_model: FAPowerModel,
    ha_style: str = HA_STYLE_LAST_PAIR,
    exclude_origins: Optional[FrozenSet[str]] = None,
) -> ColumnReduction:
    """Reduce one column's addends to at most two, allocating FAs/HAs.

    Parameters
    ----------
    addends:
        The column's working set (original addends plus carries received from
        the previous column, for the normal "column interaction" mode).
    policy:
        Selection policy choosing FA/HA inputs (timing / power / random / ...).
    ha_style:
        ``"last_pair"`` for the SC_T half-adder rule, ``"pseudo_zero"`` for the
        SC_LP rule.
    exclude_origins:
        When given, addends whose ``origin`` is in this set are kept out of
        FA/HA formation as long as enough other candidates exist.  Passing
        ``frozenset({"carry"})`` yields the column-isolation baseline of
        Figure 2(b).
    """
    if ha_style not in _VALID_HA_STYLES:
        raise AllocationError(
            f"unknown ha_style {ha_style!r}; expected one of {_VALID_HA_STYLES}"
        )

    working: List[Addend] = list(addends)
    reduction = ColumnReduction(column=column, remaining=[], carries=[])

    if ha_style == HA_STYLE_PSEUDO_ZERO and len(working) >= 3 and len(working) % 2 == 1:
        pseudo = Addend(
            net=netlist.const(0),
            column=column,
            arrival=0.0,
            probability=0.0,
            origin="pseudo_zero",
        )
        working.append(pseudo)

    def candidate_pool(minimum: int) -> List[Addend]:
        if not exclude_origins:
            return working
        preferred = [a for a in working if a.origin not in exclude_origins]
        return preferred if len(preferred) >= minimum else working

    while len(working) >= 3:
        if ha_style == HA_STYLE_PSEUDO_ZERO:
            chosen = policy.select(candidate_pool(3), 3)
            pseudo_inputs = [a for a in chosen if a.origin == "pseudo_zero"]
            if pseudo_inputs:
                real_inputs = [a for a in chosen if a.origin != "pseudo_zero"]
                sum_addend, carry_addend, cell, energy = allocate_ha(
                    netlist, real_inputs, column, delay_model, power_model
                )
                reduction.ha_cells.append(cell)
            else:
                sum_addend, carry_addend, cell, energy = allocate_fa(
                    netlist, chosen, column, delay_model, power_model
                )
                reduction.fa_cells.append(cell)
        else:
            if len(working) > 3:
                chosen = policy.select(candidate_pool(3), 3)
                sum_addend, carry_addend, cell, energy = allocate_fa(
                    netlist, chosen, column, delay_model, power_model
                )
                reduction.fa_cells.append(cell)
            else:
                chosen = policy.select(candidate_pool(2), 2)
                sum_addend, carry_addend, cell, energy = allocate_ha(
                    netlist, chosen, column, delay_model, power_model
                )
                reduction.ha_cells.append(cell)

        for used in chosen:
            working.remove(used)
        working.append(sum_addend)
        reduction.carries.append(carry_addend)
        reduction.switching_energy += energy

    # A pseudo logic-0 that was never consumed must not leak into the final
    # rows: it carries no value and would only waste a final-adder input.
    reduction.remaining = [a for a in working if a.origin != "pseudo_zero"]
    return reduction
