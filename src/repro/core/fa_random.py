"""Algorithm ``FA_random`` — the random-selection baseline of Table 2.

Structurally identical to FA_AOT/FA_ALP (column-by-column reduction with the
carries of one column feeding the next) but the three addends given to each
FA are chosen uniformly at random.  The paper uses it as the reference point
for the power comparison in Table 2.
"""

from __future__ import annotations

from typing import Optional

from repro.bitmatrix.matrix import AddendMatrix
from repro.core.column import HA_STYLE_LAST_PAIR, reduce_columns
from repro.core.delay_model import FADelayModel
from repro.core.policies import RandomPolicy
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.netlist.core import Netlist


def fa_random(
    netlist: Optional[Netlist],
    matrix: AddendMatrix,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
    seed: Optional[int] = None,
) -> CompressionResult:
    """Allocate an FA-tree with uniformly random FA input selection."""
    return reduce_columns(
        netlist, matrix, RandomPolicy(seed=seed), HA_STYLE_LAST_PAIR, None,
        delay_model, power_model,
    )
