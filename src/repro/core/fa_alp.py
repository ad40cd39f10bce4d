"""Algorithm ``FA_ALP`` — FA-tree allocation for low power (Section 4.3).

Given an addend matrix annotated with per-bit signal probabilities, allocate
an FA-tree with low total switching activity E_switching(T) by applying
:func:`repro.core.sc_lp` to each column from least to most significant.
"""

from __future__ import annotations

from typing import Optional

from repro.bitmatrix.matrix import AddendMatrix
from repro.core.column import HA_STYLE_PSEUDO_ZERO, reduce_columns
from repro.core.delay_model import FADelayModel
from repro.core.policies import LargestQPolicy
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.netlist.core import Netlist


def fa_alp(
    netlist: Optional[Netlist],
    matrix: AddendMatrix,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
) -> CompressionResult:
    """Allocate a low-power FA-tree for the given addend matrix."""
    return reduce_columns(
        netlist, matrix, LargestQPolicy(), HA_STYLE_PSEUDO_ZERO, None, delay_model, power_model
    )
