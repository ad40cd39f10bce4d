"""Input-signal specifications: bit-width, per-bit arrival time, per-bit
signal probability.

The DAC 2000 algorithms are driven by *per-bit* input characteristics.  A
:class:`SignalSpec` stores them for one input operand; scalars are broadcast
across all bits, and explicit per-bit lists are accepted for skewed profiles
(the "uneven signal arrival profiles" the paper optimizes for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.errors import DesignError

Profile = Union[float, Sequence[float]]


def _expand_profile(value: Profile, width: int, what: str, name: str) -> List[float]:
    """Broadcast a scalar or validate a per-bit sequence to ``width`` entries."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)] * width
    values = [float(v) for v in value]
    if len(values) != width:
        raise DesignError(
            f"signal {name!r}: {what} profile has {len(values)} entries for width {width}"
        )
    return values


@dataclass
class SignalSpec:
    """Characteristics of one input operand.

    Attributes
    ----------
    name:
        Operand name; matches the :class:`~repro.expr.ast.Var` name.
    width:
        Bit-width of the operand (unsigned, LSB first, as in the paper).
    arrival:
        Arrival time in nanoseconds — a scalar applied to every bit or a
        per-bit sequence (LSB first).
    probability:
        Signal probability p(x=1) — scalar or per-bit sequence (LSB first).
    """

    name: str
    width: int
    arrival: Profile = 0.0
    probability: Profile = 0.5
    _arrival_bits: List[float] = field(init=False, repr=False)
    _probability_bits: List[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise DesignError(f"signal {self.name!r} must have positive width")
        self._arrival_bits = _expand_profile(self.arrival, self.width, "arrival", self.name)
        self._probability_bits = _expand_profile(
            self.probability, self.width, "probability", self.name
        )
        for probability in self._probability_bits:
            if not 0.0 <= probability <= 1.0:
                raise DesignError(
                    f"signal {self.name!r}: probability {probability} outside [0, 1]"
                )
        for arrival in self._arrival_bits:
            if arrival < 0.0:
                raise DesignError(f"signal {self.name!r}: negative arrival time {arrival}")

    # ----------------------------------------------------------------- access
    def arrival_of(self, bit: int) -> float:
        """Arrival time of bit ``bit`` (0 = LSB)."""
        self._check_bit(bit)
        return self._arrival_bits[bit]

    def probability_of(self, bit: int) -> float:
        """Signal probability of bit ``bit`` (0 = LSB)."""
        self._check_bit(bit)
        return self._probability_bits[bit]

    def probability_profile(self) -> List[float]:
        """Per-bit signal probabilities, LSB first."""
        return list(self._probability_bits)

    def max_arrival(self) -> float:
        """Latest bit arrival (the word-level arrival time)."""
        return max(self._arrival_bits)

    def _check_bit(self, bit: int) -> None:
        if not 0 <= bit < self.width:
            raise DesignError(
                f"signal {self.name!r}: bit index {bit} outside width {self.width}"
            )
