"""Dadda-style reduction (arrival-blind, minimal cells per stage).

Dadda's scheme reduces each column only as far as the next element of the
Dadda height sequence (2, 3, 4, 6, 9, 13, 19, ...), which minimises the number
of FAs/HAs at the cost of a slightly taller final adder profile.  Like the
Wallace baseline it ignores arrival times and probabilities; it is included as
a second conventional compressor-tree reference and for the ablation
benchmarks.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional

from repro.bitmatrix.matrix import AddendMatrix
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.core.tree import CompressorTree
from repro.netlist.core import Netlist


def dadda_height_sequence(limit: int) -> List[int]:
    """The Dadda height sequence 2, 3, 4, 6, 9, ... up to at least ``limit``."""
    sequence = [2]
    while sequence[-1] < limit:
        sequence.append(int(sequence[-1] * 3 / 2))
    return sequence


def dadda_reduce(
    netlist: Netlist,
    matrix: AddendMatrix,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
) -> CompressionResult:
    """Reduce the matrix with Dadda's minimal-stage-count scheme."""
    tree = CompressorTree(netlist, matrix.width, delay_model, power_model)
    columns = [sorted(column, key=attrgetter("sequence")) for column in matrix.columns()]

    max_height = max((len(column) for column in columns), default=0)
    targets = [t for t in reversed(dadda_height_sequence(max(2, max_height))) if t < max_height]
    if not targets or targets[-1] != 2:
        targets = targets + [2] if 2 not in targets else targets

    for target in targets:
        for index, column in enumerate(columns):
            while len(column) > target:
                count = 2 if len(column) == target + 1 else 3
                chosen = column[:count]
                del column[:count]
                total, carry = tree.allocate(chosen, index)
                column.append(total)
                if carry is not None:
                    columns[index + 1].append(carry)
    return tree.result("dadda", "dadda_stage", columns)
