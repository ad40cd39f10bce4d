"""Partial-product generation for products of operands (AND-array style).

For a product of k operands, every combination of one bit per operand yields a
single-bit partial product: ``x_i * y_j * z_k`` contributes at column
``i + j + k`` and is realised as an AND tree over the participating bits.
This generalises the classic two-operand AND array to the k-operand products
that appear once a whole expression (e.g. ``x**3``) is flattened.

A :class:`ProductBitFactory` caches AND results so that repeated bit pairs
(squares, or coefficients with several non-zero digits reusing the same
product) do not duplicate gates, and it propagates arrival times and signal
probabilities through the gates it creates so the allocation algorithms see
correct per-addend data.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import AllocationError
from repro.netlist.cells import CellType
from repro.netlist.core import Net, Netlist
from repro.tech.library import TechLibrary


class BitSignal(NamedTuple):
    """A single-bit signal with allocation-time annotations."""

    net: Net
    arrival: float
    probability: float


class ProductBit(NamedTuple):
    """One partial-product bit: its column (weight) and its signal."""

    column: int
    signal: BitSignal


class ProductBitFactory:
    """Creates AND-tree product bits in a netlist, with gate sharing.

    Its signals are the netlist's own nets — the input bits and the gates
    it built — so gates are built with the unchecked
    :meth:`~repro.netlist.core.Netlist.build_cell`; the factory's owner
    calls :meth:`~repro.netlist.core.Netlist.touch` once when it is done.
    """

    def __init__(self, netlist: Netlist, library: TechLibrary) -> None:
        self.netlist = netlist
        self.library = library
        #: AND results by the ordered id pair of their input nets
        self._and_cache: Dict[Tuple[int, int], BitSignal] = {}
        self._not_cache: Dict[int, BitSignal] = {}
        self.and_gates_created = 0
        self.not_gates_created = 0

    # ----------------------------------------------------------------- gates
    def _gate(
        self,
        cell_type: CellType,
        prefix: str,
        probability: float,
        first: BitSignal,
        second: Optional[BitSignal] = None,
    ) -> BitSignal:
        """A new gate over ``first`` (and ``second``) as an annotated bit."""
        if second is None:
            inputs, arrival = {"a": first.net}, first.arrival
        else:
            inputs = {"a": first.net, "b": second.net}
            arrival = max(first.arrival, second.arrival)
        cell = self.netlist.build_cell(cell_type, inputs, output_prefix=prefix)
        delay = self.library.worst_delay(cell_type, "y")
        return BitSignal(cell.outputs["y"], arrival + delay, probability)

    def and_of(self, first: BitSignal, second: BitSignal) -> BitSignal:
        """AND of two bit signals (cached, commutative, idempotent)."""
        a, b = first.net, second.net
        if a is b:
            return first
        # Constant folding keeps the matrix free of degenerate gates.
        if a.const_value is not None:
            return second if a.const_value == 1 else self.constant(0)
        if b.const_value is not None:
            return first if b.const_value == 1 else self.constant(0)

        key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
        signal = self._and_cache.get(key)
        if signal is None:
            probability = first.probability * second.probability
            signal = self._and_cache[key] = self._gate(
                CellType.AND2, "pp_", probability, first, second
            )
            self.and_gates_created += 1
        return signal

    def not_of(self, signal: BitSignal) -> BitSignal:
        """NOT of a bit signal (cached); used for subtracted terms."""
        net = signal.net
        if net.is_constant:
            return self.constant(1 - (net.const_value or 0))
        inverted = self._not_cache.get(id(net))
        if inverted is None:
            inverted = self._not_cache[id(net)] = self._gate(
                CellType.NOT, "inv_", 1.0 - signal.probability, signal
            )
            self.not_gates_created += 1
        return inverted

    def or_of(self, first: BitSignal, second: BitSignal) -> BitSignal:
        """OR of two bit signals (with constant folding); used by Booth encoding."""
        if first.net is second.net:
            return first
        if first.net.is_constant:
            return self.constant(1) if first.net.const_value == 1 else second
        if second.net.is_constant:
            return self.constant(1) if second.net.const_value == 1 else first
        px, py = first.probability, second.probability
        return self._gate(CellType.OR2, "pp_or_", px + py - px * py, first, second)

    def xor_of(self, first: BitSignal, second: BitSignal) -> BitSignal:
        """XOR of two bit signals (with constant folding); used by Booth encoding."""
        if first.net is second.net:
            return self.constant(0)
        if first.net.is_constant:
            return second if first.net.const_value == 0 else self.not_of(second)
        if second.net.is_constant:
            return first if second.net.const_value == 0 else self.not_of(first)
        px, py = first.probability, second.probability
        return self._gate(CellType.XOR2, "pp_xor_", px + py - 2.0 * px * py, first, second)

    def constant(self, value: int) -> BitSignal:
        """Constant 0/1 as a bit signal."""
        return BitSignal(self.netlist.const(value), 0.0, float(value))

    # -------------------------------------------------------------- products
    def product_of(self, bits: Sequence[BitSignal]) -> BitSignal:
        """AND of an arbitrary number of bit signals, built as a balanced tree."""
        if not bits:
            raise AllocationError("cannot take the product of zero bits")
        level: List[BitSignal] = list(bits)
        while len(level) > 1:
            pairs = [self.and_of(a, b) for a, b in zip(level[::2], level[1::2])]
            level = pairs + level[len(pairs) * 2 :]
        return level[0]


def and_array_product(
    factory: ProductBitFactory,
    operand_bits: Sequence[Sequence[BitSignal]],
    max_column: int,
) -> List[ProductBit]:
    """All partial-product bits of the product of the given operands.

    ``operand_bits`` holds one LSB-first bit list per operand.  Partial
    products whose column would be ``>= max_column`` are not generated (they
    cannot affect a result truncated to ``max_column`` bits), which keeps the
    gate count of wide products bounded.
    """
    if not operand_bits:
        raise AllocationError("and_array_product requires at least one operand")

    products: List[ProductBit] = []

    def recurse(operand_index: int, column: int, chosen: Tuple[BitSignal, ...]) -> None:
        if column >= max_column:
            return
        if operand_index == len(operand_bits):
            signal = factory.product_of(chosen) if len(chosen) > 1 else chosen[0]
            products.append(ProductBit(column=column, signal=signal))
            return
        for bit_index, bit in enumerate(operand_bits[operand_index]):
            recurse(operand_index + 1, column + bit_index, chosen + (bit,))

    recurse(0, 0, ())
    return products
