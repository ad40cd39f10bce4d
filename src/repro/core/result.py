"""Result records of a compressor-tree allocation: per column and per tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bitmatrix.addend import Addend
from repro.errors import AllocationError
from repro.netlist.core import Cell, Netlist

#: the two LSB-first operand rows of the final adder
Rows = Tuple[List[Optional[Addend]], List[Optional[Addend]]]


@dataclass
class ColumnReduction:
    """One column's share of a compressor tree.

    ``fa_cells``, ``ha_cells``, ``switching_energy`` and ``dropped`` (carries
    that fell past the output width) are filled by
    :meth:`~repro.core.tree.CompressorTree.allocate`.  ``remaining`` holds the
    column's final addends (at most two).  ``carries`` lists the carries the
    column reducer produced for the next column, past-the-width ones
    included; the stage-based baselines hand theirs to the next stage and
    leave it empty.
    """

    column: int
    remaining: List[Addend] = field(default_factory=list)
    carries: List[Addend] = field(default_factory=list)
    fa_cells: List[Cell] = field(default_factory=list)
    ha_cells: List[Cell] = field(default_factory=list)
    switching_energy: float = 0.0
    dropped: List[Addend] = field(default_factory=list)

    @property
    def fa_count(self) -> int:
        """Number of full adders allocated for this column."""
        return len(self.fa_cells)

    @property
    def ha_count(self) -> int:
        """Number of half adders allocated for this column."""
        return len(self.ha_cells)


def final_rows(columns: Iterable[Sequence[Addend]]) -> Rows:
    """Split reduced columns (at most two addends each) into two operand rows.

    Within each column the earlier-arriving addend is placed in row 0; the
    choice does not affect correctness (the final adder sums both rows) but it
    makes reports stable and readable.
    """
    row_a: List[Optional[Addend]] = []
    row_b: List[Optional[Addend]] = []
    for index, column in enumerate(columns):
        if len(column) > 2:
            raise AllocationError(f"column {index} still has {len(column)} addends")
        addends = sorted(column, key=lambda a: (a.arrival, a.sequence)) + [None, None]
        row_a.append(addends[0])
        row_b.append(addends[1])
    return row_a, row_b


@dataclass
class CompressionResult:
    """Everything produced by reducing an addend matrix to two rows.

    Attributes
    ----------
    netlist:
        The netlist the FA/HA cells were added to (shared with the matrix
        builder's netlist).
    width:
        Number of columns (the output width W).
    column_reductions:
        Per-column :class:`ColumnReduction` records, LSB first.
    policy_name / ha_style:
        How the allocation was made (for reports).

    The final-adder ``rows``, the paper's ``tree_switching_energy`` and the
    ``max_final_arrival`` are derived from the column records.
    """

    netlist: Netlist
    width: int
    column_reductions: List[ColumnReduction]
    policy_name: str
    ha_style: str
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ cells
    @property
    def fa_cells(self) -> List[Cell]:
        """Every full adder allocated by the reduction."""
        return [cell for reduction in self.column_reductions for cell in reduction.fa_cells]

    @property
    def ha_cells(self) -> List[Cell]:
        """Every half adder allocated by the reduction."""
        return [cell for reduction in self.column_reductions for cell in reduction.ha_cells]

    @property
    def fa_count(self) -> int:
        """Number of full adders in the tree."""
        return sum(reduction.fa_count for reduction in self.column_reductions)

    @property
    def ha_count(self) -> int:
        """Number of half adders in the tree."""
        return sum(reduction.ha_count for reduction in self.column_reductions)

    @property
    def tree_switching_energy(self) -> float:
        """The paper's E_switching(T): Ws/Wc-weighted switching activity of
        every FA/HA output in the tree, summed column by column."""
        total = 0.0
        for reduction in self.column_reductions:
            total += reduction.switching_energy
        return total

    # ------------------------------------------------------------- final rows
    @property
    def rows(self) -> Rows:
        """Two LSB-first lists of length ``width``; ``rows[r][c]`` is the
        addend feeding row *r* of the final adder at column *c*, or ``None``
        when the column ended with fewer than ``r+1`` addends."""
        return final_rows(reduction.remaining for reduction in self.column_reductions)

    def final_addends(self) -> List[Addend]:
        """All final-row addends (flattened, Nones dropped)."""
        return [addend for row in self.rows for addend in row if addend is not None]

    @property
    def max_final_arrival(self) -> float:
        """Latest arrival time among the final-row addends — the quantity the
        paper's modified Problem 1 minimises (the final adder's worst input)."""
        return max((addend.arrival for addend in self.final_addends()), default=0.0)

    def summary(self) -> str:
        """One-line summary for logs and examples."""
        return (
            f"policy={self.policy_name}, FAs={self.fa_count}, HAs={self.ha_count}, "
            f"final-adder worst input arrival={self.max_final_arrival:.3f}, "
            f"E_switching(T)={self.tree_switching_energy:.4f}"
        )
