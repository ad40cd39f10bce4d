"""The paper's contribution: FA-tree (compressor-tree) allocation algorithms.

* :func:`fa_aot` — timing-driven allocation (paper Section 3, algorithm
  ``FA_AOT`` built on ``SC_T``), delay-optimal for uneven arrival profiles.
* :func:`fa_alp` — power-driven allocation (paper Section 4, algorithm
  ``FA_ALP`` built on ``SC_LP``), minimises switching activity.
* :func:`fa_random` — random input selection, the power baseline of Table 2.
* :class:`CompressorTreeBuilder` — the shared engine that reduces an addend
  matrix column by column with a pluggable selection policy.
* :class:`CompressorTree` — the tree record every reducer (these and the
  Wallace, Dadda and CSA_OPT baselines) builds cells in: its one
  :meth:`~CompressorTree.allocate` is the FA/HA step, with the Ds/Dc
  arrivals, output probabilities and Ws/Wc energy of each cell.
"""

from repro.core.delay_model import FADelayModel
from repro.core.power_model import (
    FAPowerModel,
    fa_output_probabilities,
    fa_output_q,
    ha_output_probabilities,
    switching_activity,
)
from repro.core.policies import (
    EarliestArrivalPolicy,
    LargestQPolicy,
    RandomPolicy,
    RowOrderPolicy,
    SelectionPolicy,
)
from repro.core.result import ColumnReduction, CompressionResult
from repro.core.tree import CompressorTree
from repro.core.column import reduce_column
from repro.core.sc_t import sc_t
from repro.core.sc_lp import sc_lp
from repro.core.tree_builder import CompressorTreeBuilder
from repro.core.fa_aot import fa_aot
from repro.core.fa_alp import fa_alp
from repro.core.fa_random import fa_random

__all__ = [
    "FADelayModel",
    "FAPowerModel",
    "fa_output_probabilities",
    "fa_output_q",
    "ha_output_probabilities",
    "switching_activity",
    "EarliestArrivalPolicy",
    "LargestQPolicy",
    "RandomPolicy",
    "RowOrderPolicy",
    "SelectionPolicy",
    "ColumnReduction",
    "reduce_column",
    "sc_t",
    "sc_lp",
    "CompressionResult",
    "CompressorTree",
    "CompressorTreeBuilder",
    "fa_aot",
    "fa_alp",
    "fa_random",
]
