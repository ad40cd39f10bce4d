"""Word-level carry-save-adder allocation — the CSA_OPT baseline (ref. [8]).

The authors' earlier ICCAD'99 algorithm allocates 3:2 carry-save adders at the
*word* level: every operand of the flattened addition (a shifted variable, a
multiplier output kept in carry-save form, a constant) is a word with a single
arrival time, and the CSA tree is built by repeatedly combining the three
earliest-arriving words.  This is delay-optimal *given word granularity* — the
limitation the DAC 2000 paper removes by descending to individual bits.

Re-implementation choices (documented in DESIGN.md):

* Words are recovered from the addend matrix through the ``row`` identifiers
  the matrix builder assigns (one row per term and coefficient digit).
* A row that carries more than one bit per column (the partial products of a
  multiplication) is first reduced internally with the classic arrival-blind
  Wallace scheme and contributes its two result rows as two words — i.e. the
  multiplier output enters the word-level CSA tree in carry-save form, exactly
  how CSA-allocation flows chain multipliers.
* Each word-level CSA is a row of FAs/HAs over the union of the three words'
  columns; bits missing from a word are treated as constant 0 (an FA with a
  constant input degenerates to an HA, a lone bit passes through).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bitmatrix.addend import Addend
from repro.bitmatrix.matrix import AddendMatrix
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult, final_rows
from repro.core.tree import CompressorTree
from repro.baselines.wallace import wallace_stages
from repro.errors import AllocationError
from repro.netlist.core import Netlist


class _Word:
    """A word-level operand: at most one addend per column."""

    __slots__ = ("bits",)

    def __init__(self, addends: List[Addend]) -> None:
        self.bits: Dict[int, Addend] = {}
        for addend in addends:
            if addend.column in self.bits:
                raise AllocationError(
                    f"word has two bits in column {addend.column}; reduce it first"
                )
            self.bits[addend.column] = addend

    @property
    def arrival(self) -> float:
        """Word-level arrival time: the latest bit arrival."""
        return max((a.arrival for a in self.bits.values()), default=0.0)

    def columns(self) -> List[int]:
        """Columns at which the word has a bit, ascending."""
        return sorted(self.bits)

    def addends(self) -> List[Addend]:
        """The word's addends in column order."""
        return [self.bits[c] for c in self.columns()]


def _rows_to_words(tree: CompressorTree, matrix: AddendMatrix) -> List[_Word]:
    """Group matrix addends into word operands, pre-reducing multiplier rows."""
    groups: Dict[int, List[Addend]] = {}
    singles: List[Addend] = []
    for column in matrix.columns():
        for addend in column:
            if addend.row < 0:
                singles.append(addend)
            else:
                groups.setdefault(addend.row, []).append(addend)

    words: List[_Word] = []
    for row_id in sorted(groups):
        addends = groups[row_id]
        columns: List[List[Addend]] = [[] for _ in range(tree.width)]
        for addend in addends:
            columns[addend.column].append(addend)
        if max(map(len, columns)) == 1:
            words.append(_Word(addends))
            continue
        # Multiplication partial products: reduce internally (arrival-blind
        # Wallace, as a conventional multiplier macro would) and keep the
        # carry-save output as two words.
        for row in final_rows(wallace_stages(tree, columns)):
            row_addends = [a for a in row if a is not None]
            if row_addends:
                words.append(_Word(row_addends))
    for addend in singles:
        words.append(_Word([addend]))
    return words


def csa_opt_reduce(
    netlist: Netlist,
    matrix: AddendMatrix,
    delay_model: Optional[FADelayModel] = None,
    power_model: Optional[FAPowerModel] = None,
) -> CompressionResult:
    """Reduce the matrix with word-level CSA allocation (the CSA_OPT baseline)."""
    tree = CompressorTree(netlist, matrix.width, delay_model, power_model)
    words = _rows_to_words(tree, matrix)

    while len(words) > 2:
        words.sort(key=lambda w: (w.arrival, min(w.bits, default=0)))
        first, second, third = words[0], words[1], words[2]
        del words[0:3]

        sum_bits: List[Addend] = []
        carry_bits: List[Addend] = []
        columns = sorted(set(first.bits) | set(second.bits) | set(third.bits))
        for column in columns:
            present = [
                word.bits[column]
                for word in (first, second, third)
                if column in word.bits
            ]
            if len(present) == 1:
                sum_bits.append(present[0])
                continue
            total, carry = tree.allocate(present, column)
            sum_bits.append(total)
            if carry is not None:
                carry_bits.append(carry)

        words.append(_Word(sum_bits))
        if carry_bits:
            words.append(_Word(carry_bits))

    final: List[List[Addend]] = [[] for _ in range(tree.width)]
    for word in words:
        for addend in word.addends():
            final[addend.column].append(addend)
    return tree.result("csa_opt", "word_level", final)
