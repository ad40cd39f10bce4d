"""Flattening an arithmetic expression into a netlist plus addend matrix.

This is the front half of the paper's one-step synthesis flow: the expression
is lowered to a sum of products (:mod:`repro.expr.lowering`), every product is
expanded into single-bit partial products, subtracted terms are rewritten with
two's-complement identities, and all constant contributions are folded into a
single constant.  The output is a :class:`~repro.bitmatrix.matrix.AddendMatrix`
whose addends reference nets of a freshly built :class:`~repro.netlist.core.Netlist`
(primary inputs, AND-array partial products and inverters), ready for
compressor-tree allocation.

Negative contributions use the per-bit identity

    -b * 2**c  ==  (1 - b) * 2**c - 2**c      (mod 2**width)

so a subtracted bit becomes an inverted addend plus a constant correction that
is folded with all other constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bitmatrix.addend import Addend
from repro.bitmatrix.booth import booth_partial_products
from repro.bitmatrix.constants import constant_addends
from repro.bitmatrix.matrix import AddendMatrix
from repro.bitmatrix.partial_products import (
    BitSignal,
    ProductBit,
    ProductBitFactory,
    and_array_product,
)
from repro.errors import AllocationError, DesignError
from repro.expr.ast import Expression
from repro.expr.lowering import Term, lower_to_terms
from repro.expr.signals import SignalSpec
from repro.netlist.core import Bus, Netlist
from repro.tech.library import TechLibrary
from repro.utils.bits import csd_digits


@dataclass
class MatrixBuildResult:
    """Everything produced by :func:`build_addend_matrix`."""

    netlist: Netlist
    matrix: AddendMatrix
    input_buses: Dict[str, Bus]
    terms: List[Term]
    signals: Dict[str, SignalSpec]
    output_width: int
    constant_total: int = 0
    and_gates: int = 0
    not_gates: int = 0
    dropped_addends: int = 0
    notes: List[str] = field(default_factory=list)

    def initial_heights(self) -> List[int]:
        """Per-column addend counts of the freshly built matrix."""
        return self.matrix.heights()


def _folded_square_product(
    factory: ProductBitFactory,
    bits: List[BitSignal],
    max_column: int,
) -> List[ProductBit]:
    """Partial products of ``x*x`` with the symmetric pairs folded.

    ``x^2 = sum_i x_i 4^i + sum_{i<j} x_i x_j 2^(i+j+1)`` — the diagonal terms
    need no gate at all and every off-diagonal pair appears once, shifted one
    column left, instead of twice.
    """
    products: List[ProductBit] = []
    for i, bit in enumerate(bits):
        if 2 * i < max_column:
            products.append(ProductBit(2 * i, bit))
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            column = i + j + 1
            if column >= max_column:
                continue
            products.append(ProductBit(column, factory.and_of(bits[i], bits[j])))
    return products


def _coefficient_digits(magnitude: int, use_csd: bool) -> List[Tuple[int, int]]:
    """Decompose a positive coefficient into (shift, digit) pairs.

    Binary decomposition yields digits in {+1}; CSD yields digits in {-1, +1}
    with fewer non-zero entries for coefficients such as 7 or 30.
    """
    if magnitude <= 0:
        raise AllocationError(f"coefficient magnitude must be positive, got {magnitude}")
    if use_csd:
        return [(shift, digit) for shift, digit in enumerate(csd_digits(magnitude)) if digit]
    return [(shift, 1) for shift in range(magnitude.bit_length()) if (magnitude >> shift) & 1]


def build_addend_matrix(
    expression: Expression,
    signals: Mapping[str, SignalSpec],
    output_width: int,
    library: Optional[TechLibrary] = None,
    name: str = "datapath",
    use_csd_coefficients: bool = False,
    terms: Optional[Sequence[Term]] = None,
    multiplication_style: str = "and_array",
    fold_square_products: bool = False,
) -> MatrixBuildResult:
    """Flatten ``expression`` into a netlist and an addend matrix.

    Parameters
    ----------
    expression:
        The arithmetic expression (additions, subtractions, multiplications).
    signals:
        A :class:`SignalSpec` per variable used by the expression.
    output_width:
        Result width W; all arithmetic is modulo ``2**W``.
    library:
        Technology library used to annotate partial-product/inverter delays;
        defaults to :func:`repro.tech.generic_035`.
    use_csd_coefficients:
        Recode constant coefficients in canonical signed-digit form (fewer
        addend rows for coefficients like 7, at the cost of inverters).
    terms:
        Pre-lowered term list; when omitted the expression is lowered here.
    multiplication_style:
        ``"and_array"`` (the paper's scheme) or ``"booth"`` — radix-4 Booth
        recoding for two-operand products (higher-degree products always use
        the AND array).
    fold_square_products:
        Optional optimization beyond the paper: for square terms ``x*x`` the
        symmetric partial products ``x_i·x_j`` and ``x_j·x_i`` (i < j) are
        folded into a single addend one column to the left
        (``2·x_i·x_j·2^(i+j) = x_i·x_j·2^(i+j+1)``), and the diagonal terms
        degenerate to ``x_i`` — roughly halving the addend count of squarers.
    """
    if multiplication_style not in ("and_array", "booth"):
        raise DesignError(
            f"unknown multiplication_style {multiplication_style!r}; "
            f"expected 'and_array' or 'booth'"
        )
    if library is None:
        from repro.tech.default_libs import generic_035

        library = generic_035()
    if output_width <= 0:
        raise DesignError(f"output width must be positive, got {output_width}")

    term_list = list(terms) if terms is not None else lower_to_terms(expression)
    variable_order = expression.variables()
    for variable in variable_order:
        if variable not in signals:
            raise DesignError(f"expression uses variable {variable!r} with no SignalSpec")

    netlist = Netlist(name)
    factory = ProductBitFactory(netlist, library)
    matrix = AddendMatrix(output_width, name=f"{name}_matrix")

    # Primary inputs: one bus per variable, with per-bit annotations.
    input_buses: Dict[str, Bus] = {}
    variable_bits: Dict[str, List[BitSignal]] = {}
    for variable in variable_order:
        spec = signals[variable]
        bus = netlist.add_input_bus(variable, spec.width)
        input_buses[variable] = bus
        bits: List[BitSignal] = []
        for index, net in enumerate(bus.nets):
            arrival = spec.arrival_of(index)
            probability = spec.probability_of(index)
            netlist.annotate(net, arrival=arrival, probability=probability)
            bits.append(BitSignal(net, arrival, probability))
        variable_bits[variable] = bits

    constant_total = 0
    dropped = 0
    notes: List[str] = []
    next_row = 0

    for term in term_list:
        if term.is_constant:
            constant_total += term.coefficient
            continue

        sign = 1 if term.coefficient > 0 else -1
        magnitude = abs(term.coefficient)
        operand_bits = [variable_bits[factor] for factor in term.factors]
        booth_constant = 0
        is_square = len(term.factors) == 2 and term.factors[0] == term.factors[1]
        if fold_square_products and is_square:
            product_bits = _folded_square_product(
                factory, operand_bits[0], max_column=output_width
            )
        elif multiplication_style == "booth" and len(term.factors) == 2:
            product_bits, booth_constant = booth_partial_products(
                factory, operand_bits[0], operand_bits[1], max_column=output_width
            )
        else:
            product_bits = and_array_product(
                factory, operand_bits, max_column=output_width
            )

        for shift, digit in _coefficient_digits(magnitude, use_csd_coefficients):
            effective_sign = sign * digit
            constant_total += effective_sign * (booth_constant << shift)
            row_id = next_row
            next_row += 1
            for product in product_bits:
                column = product.column + shift
                if column >= output_width:
                    dropped += 1
                    continue
                signal = product.signal
                if effective_sign > 0:
                    added = matrix.add(
                        Addend(
                            net=signal.net,
                            column=column,
                            arrival=signal.arrival,
                            probability=signal.probability,
                            origin="pp" if len(term.factors) > 1 else "input",
                            row=row_id,
                        )
                    )
                else:
                    inverted = factory.not_of(signal)
                    added = matrix.add(
                        Addend(
                            net=inverted.net,
                            column=column,
                            arrival=inverted.arrival,
                            probability=inverted.probability,
                            origin="not",
                            row=row_id,
                        )
                    )
                    constant_total -= 1 << column
                if not added:
                    dropped += 1

    # Fold every constant contribution into constant-1 addends.
    if constant_total % (1 << output_width) != 0:
        const_bits = constant_addends(netlist, constant_total, output_width)
        for addend in const_bits:
            addend.row = next_row
        next_row += 1
        matrix.extend(const_bits)

    if dropped:
        notes.append(
            f"{dropped} partial-product bits fell outside the {output_width}-bit "
            f"output and were dropped (modulo-2**W semantics)"
        )

    return MatrixBuildResult(
        netlist=netlist,
        matrix=matrix,
        input_buses=input_buses,
        terms=term_list,
        signals={v: signals[v] for v in variable_order},
        output_width=output_width,
        constant_total=constant_total,
        and_gates=factory.and_gates_created,
        not_gates=factory.not_gates_created,
        dropped_addends=dropped,
        notes=notes,
    )
