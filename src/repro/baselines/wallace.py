"""Classic Wallace-tree reduction (arrival-blind, stage-based).

This is the scheme the paper identifies as prior art: every reduction stage
looks at each column independently, groups its addends three at a time into
FAs (plus one HA when two are left over in a column that still needs
reduction), and defers all sums/carries to the next stage.  Input selection is
by row order — arrival times and signal probabilities are ignored, which is
exactly what FA_AOT / FA_ALP improve upon.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence

from repro.bitmatrix.addend import Addend
from repro.bitmatrix.matrix import AddendMatrix
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.core.tree import CompressorTree
from repro.netlist.core import Netlist


def wallace_stages(
    tree: CompressorTree, columns: Sequence[List[Addend]]
) -> Sequence[List[Addend]]:
    """Plan Wallace stages in ``tree`` until no column holds more than two addends.

    Returns the final columns, LSB first; ``columns`` is not mutated.
    """
    while max(map(len, columns), default=0) > 2:
        # Everything produced in this stage only becomes available in the
        # next stage (classic Wallace staging).
        staged: List[List[Addend]] = [[] for _ in columns]
        for index, column in enumerate(columns):
            addends = sorted(column, key=attrgetter("sequence"))
            cut = len(addends) - len(addends) % 3
            groups = [addends[start : start + 3] for start in range(0, cut, 3)]
            leftovers = addends[cut:]
            if len(leftovers) == 2 and len(addends) > 2:
                groups.append(leftovers)
                leftovers = []
            for chosen in groups:
                total, carry = tree.allocate(chosen, index)
                staged[index].append(total)
                if carry is not None:
                    staged[index + 1].append(carry)
            staged[index].extend(leftovers)
        columns = staged
    return columns


def wallace_reduce(
    netlist: Optional[Netlist],
    matrix: AddendMatrix,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
) -> CompressionResult:
    """Reduce the matrix with the classic stage-based Wallace scheme."""
    tree = CompressorTree(matrix.width, delay_model, power_model)
    return tree.result(
        netlist, "wallace", "wallace_stage", wallace_stages(tree, matrix.columns())
    )
