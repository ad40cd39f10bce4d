"""The compressor-tree builder: column-by-column reduction of an addend matrix.

``CompressorTreeBuilder.run`` implements the outer loop shared by the paper's
``FA_AOT`` and ``FA_ALP`` algorithms (and by the baselines that reuse the same
machinery): starting at the least-significant column, each column — including
any carries received from the column below — is reduced to at most two addends
by :func:`repro.core.column.reduce_column`, and the carries it produces join
the next column before that column is processed.  Carries that would fall
outside the output width are dropped (modulo-2**W semantics).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.bitmatrix.addend import Addend
from repro.bitmatrix.matrix import AddendMatrix
from repro.core.column import HA_STYLE_LAST_PAIR, reduce_column
from repro.core.delay_model import FADelayModel
from repro.core.policies import SelectionPolicy
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.core.tree import CompressorTree
from repro.netlist.core import Netlist


class CompressorTreeBuilder:
    """Reduces an :class:`AddendMatrix` to two rows inside a netlist."""

    def __init__(
        self,
        netlist: Netlist,
        matrix: AddendMatrix,
        delay_model: Optional[FADelayModel] = None,
        power_model: Optional[FAPowerModel] = None,
    ) -> None:
        self.netlist = netlist
        self.matrix = matrix
        self.delay_model = delay_model
        self.power_model = power_model

    def run(
        self,
        policy: SelectionPolicy,
        ha_style: str = HA_STYLE_LAST_PAIR,
        exclude_origins: Optional[FrozenSet[str]] = None,
    ) -> CompressionResult:
        """Reduce the matrix with the given selection policy.

        The input matrix is not mutated; the netlist *is* extended with the
        allocated FA/HA cells.
        """
        tree = CompressorTree(self.netlist, self.matrix.width, self.delay_model, self.power_model)
        carries: List[Addend] = []
        for index, addends in enumerate(self.matrix.columns()):
            carries = reduce_column(
                tree, addends + carries, index, policy, ha_style, exclude_origins
            ).carries
        return tree.result(policy.name, ha_style)
