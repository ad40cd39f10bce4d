"""Algorithm ``SC_T`` — FA allocation for a single column, for timing.

This is the paper's Section 3.3 building block: repeatedly take the three
addends with the earliest arrival times and feed them to a new FA (an HA on
the two earliest when exactly three remain), until the column holds two
addends.  :func:`sc_t` exposes it directly on a list of addends so the
Lemma 1 / Lemma 2 optimality properties can be exercised in isolation; the
full multi-column algorithm ``FA_AOT`` applies it column by column via
:class:`~repro.core.tree_builder.CompressorTreeBuilder`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bitmatrix.addend import Addend
from repro.core.column import HA_STYLE_LAST_PAIR, reduce_column
from repro.core.delay_model import FADelayModel
from repro.core.policies import EarliestArrivalPolicy
from repro.core.power_model import FAPowerModel
from repro.core.result import ColumnReduction
from repro.core.tree import CompressorTree
from repro.netlist.core import Netlist


def sc_t(
    netlist: Netlist,
    addends: Sequence[Addend],
    column: int = 0,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
) -> ColumnReduction:
    """Reduce one column of addends with the paper's SC_T procedure.

    Returns the :class:`ColumnReduction` holding the two remaining addends,
    the carry addends produced for the next column and the allocated cells.
    """
    # wide enough to keep the carries, which land in column + 1
    tree = CompressorTree(netlist, column + 2, delay_model, power_model)
    return reduce_column(tree, addends, column, EarliestArrivalPolicy(), HA_STYLE_LAST_PAIR)
