"""Algorithm ``FA_AOT`` — FA-tree allocation for optimal timing (Section 3.3).

Given an addend matrix annotated with per-bit arrival times, allocate the
FA-tree that minimises the latest arrival among the final adder's inputs (and
therefore, by the paper's Observation 1 and Theorem 1, the overall delay of
the implementation).  The algorithm applies :func:`repro.core.sc_t` to each
column from least to most significant, letting the carries of column *j*
participate in the reduction of column *j+1*.
"""

from __future__ import annotations

from typing import Optional

from repro.bitmatrix.matrix import AddendMatrix
from repro.core.delay_model import FADelayModel
from repro.core.policies import EarliestArrivalPolicy
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.core.column import HA_STYLE_LAST_PAIR, reduce_columns
from repro.netlist.core import Netlist


def fa_aot(
    netlist: Optional[Netlist],
    matrix: AddendMatrix,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
    column_interaction: bool = True,
) -> CompressionResult:
    """Allocate a delay-optimal FA-tree for the given addend matrix.

    With ``netlist=None`` the tree is planned on the column model only
    (see :func:`repro.core.tree.materialize`).

    Parameters
    ----------
    column_interaction:
        When True (the default, the paper's algorithm) carries produced by a
        column are candidates for FA inputs in the next column.  When False
        the carries only join the final rows — this is the weaker
        "column isolation" scheme of Figure 2(b), kept for comparison.
    """
    exclude = None if column_interaction else frozenset({"carry"})
    return reduce_columns(
        netlist, matrix, EarliestArrivalPolicy(), HA_STYLE_LAST_PAIR, exclude,
        delay_model, power_model,
    )
