"""Algorithm ``SC_LP`` — FA allocation for a single column, for low power.

The paper's Section 4.3 building block: when the column has an odd number of
addends a pseudo "logic 0" is added (to model the half adder), then FAs are
repeatedly allocated on the three addends with the largest ``|q| = |p - 0.5|``
until two remain; an FA that consumes the pseudo zero is realised as an HA.
The full multi-column algorithm ``FA_ALP`` applies this column by column.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bitmatrix.addend import Addend
from repro.core.column import HA_STYLE_PSEUDO_ZERO, reduce_column
from repro.core.delay_model import FADelayModel
from repro.core.policies import LargestQPolicy
from repro.core.power_model import FAPowerModel
from repro.core.result import ColumnReduction
from repro.core.tree import CompressorTree
from repro.netlist.core import Netlist


def sc_lp(
    netlist: Optional[Netlist],
    addends: Sequence[Addend],
    column: int = 0,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
) -> ColumnReduction:
    """Reduce one column of addends with the paper's SC_LP procedure (its
    plan alone, with no cells, when ``netlist`` is ``None``)."""
    # wide enough to keep the carries, which land in column + 1
    tree = CompressorTree(column + 2, delay_model, power_model)
    policy = LargestQPolicy()
    reduce_column(tree, addends, column, policy, HA_STYLE_PSEUDO_ZERO)
    return tree.result(netlist, policy.name, HA_STYLE_PSEUDO_ZERO).column_reductions[column]
