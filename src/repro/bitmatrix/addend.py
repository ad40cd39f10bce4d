"""The :class:`Addend` record — one single-bit operand of the addend matrix.

An addend couples a netlist net with the data the allocation algorithms need:
its bit column (weight), its arrival time (for FA_AOT) and its signal
probability (for FA_ALP).  Addends are created by the matrix builder for
primary-input bits, partial-product bits, inverted bits and constants, and by
the compressor-tree builder for FA/HA sum and carry outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.netlist.core import Net

_addend_ids = count()


@dataclass(eq=False)
class Addend:
    """A single-bit addend of the matrix.

    Addends compare and hash by identity: each one is a distinct operand
    (its ``sequence`` is unique), and the column reducer removes chosen
    addends from its working list without a field-by-field comparison.

    Attributes
    ----------
    net:
        The netlist net carrying the bit.
    column:
        Bit weight: the addend contributes ``bit * 2**column`` to the result.
    arrival:
        Arrival time of the bit (allocation-time delay model units, ns).
    probability:
        Probability that the bit is 1 (paper's p(x)).
    origin:
        Free-form provenance label ("input", "pp", "const", "sum", "carry",
        "not"), used by reports and by the column-isolation baseline which
        must distinguish original column addends from generated carries.
    sequence:
        Monotonically increasing creation index; used as the deterministic
        final tie-break so that allocation results are reproducible.
    row:
        Word-level row identifier assigned by the matrix builder (all addends
        coming from the same term/shift share a row).  Used by the word-level
        CSA_OPT baseline, which must allocate carry-save adders per word
        rather than per bit; -1 when the addend belongs to no word.
    """

    net: Net
    column: int
    arrival: float = 0.0
    probability: float = 0.5
    origin: str = "input"
    sequence: int = field(default_factory=lambda: next(_addend_ids))
    row: int = -1

    @property
    def q_value(self) -> float:
        """The paper's q(x) = p(x) - 0.5."""
        return self.probability - 0.5

    @property
    def switching(self) -> float:
        """Switching activity p(1-p) of the bit."""
        return self.probability * (1.0 - self.probability)

    @property
    def is_constant(self) -> bool:
        """True when the addend is a constant 0/1 net."""
        return self.net.is_constant

    def shifted(self, delta: int) -> "Addend":
        """Copy of this addend moved ``delta`` columns to the left."""
        return Addend(
            net=self.net,
            column=self.column + delta,
            arrival=self.arrival,
            probability=self.probability,
            origin=self.origin,
            row=self.row,
        )

    def describe(self) -> str:
        """Short human-readable description used in traces and examples."""
        return (
            f"{self.net.name}@col{self.column}"
            f"(t={self.arrival:g}, p={self.probability:g}, {self.origin})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Addend({self.describe()})"
