"""Cell (gate) types: one declarative record per type.

The cell set is the set of primitives the DAC 2000 flow needs — full/half
adders as the compression primitives, two-input gates for partial products
and prefix adders, an inverter for two's-complement negation — plus the
complex standard cells the technology-mapping target bases contribute
(``OAI21``, ``AOI22``, ``XOR3``, ``MAJ3``).  Every cell type is
combinational and has a fixed port list.

:data:`CELL_DEFS` holds the one :class:`CellDef` of each :class:`CellType`:
ordered ports, one Boolean expression tree per output, the placement
footprint and (FA only) the paper's closed-form probability function.
Every other view is derived from it once, at import: the scalar
:func:`evaluate_cell` here, the packed ops of :mod:`repro.sim.program`, the
probability functions of :mod:`repro.power.probability`, the Verilog of
:mod:`repro.netlist.verilog`, the CSE input symmetries of
:mod:`repro.opt.cse`, the footprints of :mod:`repro.place.fabric` and the
``add_cell`` port table.  Adding a cell type is one :class:`CellType` member
and one :class:`CellDef`, plus its entries in each technology library.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.errors import NetlistError


class CellType(str, Enum):
    """Enumeration of supported cell (gate) types."""

    FA = "FA"
    HA = "HA"
    AND2 = "AND2"
    NAND2 = "NAND2"
    OR2 = "OR2"
    NOR2 = "NOR2"
    XOR2 = "XOR2"
    XNOR2 = "XNOR2"
    NOT = "NOT"
    BUF = "BUF"
    MUX2 = "MUX2"
    AOI21 = "AOI21"
    OAI21 = "OAI21"
    AOI22 = "AOI22"
    XOR3 = "XOR3"
    MAJ3 = "MAJ3"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: node kinds of a cell expression tree; ``MUX(s, a, b)`` is ``s ? b : a``
#: and ``MAJ`` is the majority of three
NODE_KINDS = ("AND", "OR", "XOR", "NOT", "MUX", "MAJ")


class Expr(NamedTuple):
    """One node of a cell's expression tree; leaves are input port names."""

    kind: str
    args: Tuple[Union["Expr", str], ...]


Function = Union[Expr, str]


def _node(kind: str) -> Callable[..., Expr]:
    return lambda *args: Expr(kind, args)


AND, OR, XOR, NOT, MUX, MAJ = map(_node, NODE_KINDS)


@dataclass(frozen=True)
class CellDef:
    """Everything that defines one cell type.

    ``functions[k]`` is the expression tree of output port ``outputs[k]``
    over the input ports.  ``probability`` names (``module:function``) a
    closed-form override of the derived signal-probability function; it is
    a name rather than a reference because the power model's package
    imports this one.
    """

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    functions: Tuple[Function, ...]
    footprint: int
    probability: Optional[str] = None


def _gate(inputs: str, function: Function, footprint: int) -> CellDef:
    """A single-output cell with output port ``y``."""
    return CellDef(tuple(inputs.split()), ("y",), (function,), footprint)


#: the one definition of every cell type; footprints are placement sites
#: (1 row tall, N sites wide), roughly proportional to transistor count
CELL_DEFS: Dict[CellType, CellDef] = {
    CellType.FA: CellDef(
        ("a", "b", "cin"),
        ("s", "co"),
        (XOR(XOR("a", "b"), "cin"), MAJ("a", "b", "cin")),
        footprint=4,
        probability="repro.core.power_model:fa_output_probabilities",
    ),
    CellType.HA: CellDef(("a", "b"), ("s", "co"), (XOR("a", "b"), AND("a", "b")), 3),
    CellType.AND2: _gate("a b", AND("a", "b"), 1),
    CellType.NAND2: _gate("a b", NOT(AND("a", "b")), 1),
    CellType.OR2: _gate("a b", OR("a", "b"), 1),
    CellType.NOR2: _gate("a b", NOT(OR("a", "b")), 1),
    CellType.XOR2: _gate("a b", XOR("a", "b"), 2),
    CellType.XNOR2: _gate("a b", NOT(XOR("a", "b")), 2),
    CellType.NOT: _gate("a", NOT("a"), 1),
    CellType.BUF: _gate("a", "a", 1),
    CellType.MUX2: _gate("a b sel", MUX("sel", "a", "b"), 2),
    CellType.AOI21: _gate("a b c", NOT(OR(AND("a", "b"), "c")), 2),
    CellType.OAI21: _gate("a b c", NOT(AND(OR("a", "b"), "c")), 2),
    CellType.AOI22: _gate("a b c d", NOT(OR(AND("a", "b"), AND("c", "d"))), 2),
    CellType.XOR3: _gate("a b c", XOR(XOR("a", "b"), "c"), 3),
    CellType.MAJ3: _gate("a b c", MAJ("a", "b", "c"), 3),
}


def cell_def(cell_type: CellType) -> CellDef:
    """The :class:`CellDef` of ``cell_type``."""
    try:
        return CELL_DEFS[cell_type]
    except KeyError as exc:  # pragma: no cover - defensive
        raise NetlistError(f"unknown cell type {cell_type!r}") from exc


def cell_input_ports(cell_type: CellType) -> Tuple[str, ...]:
    """Return the ordered input port names of ``cell_type``."""
    try:
        return CELL_DEFS[cell_type].inputs
    except KeyError as exc:  # pragma: no cover - defensive
        raise NetlistError(f"unknown cell type {cell_type!r}") from exc


def cell_output_ports(cell_type: CellType) -> Tuple[str, ...]:
    """Return the ordered output port names of ``cell_type``."""
    try:
        return CELL_DEFS[cell_type].outputs
    except KeyError as exc:  # pragma: no cover - defensive
        raise NetlistError(f"unknown cell type {cell_type!r}") from exc


def straight_line(
    functions: Tuple[Function, ...], rules: Mapping[str, str], leaf: str = "{}"
) -> Tuple[List[str], List[str]]:
    """Python computing ``functions`` from per-node templates.

    A leaf renders as ``leaf.format(port)``, a node as
    ``(rules[kind].format(*children))``.  Returns ``(statements, results)``:
    ``results[k]`` is an expression for ``functions[k]``, and ``statements``
    first assign every leaf or node the trees read more than once to a local
    ``t<k>``, so a subterm shared between outputs (the FA's ``a ^ b`` once
    MAJ is lowered) is computed once.
    """
    uses: Dict[Function, int] = {}

    def count(expr: Function) -> None:
        uses[expr] = uses.get(expr, 0) + 1
        if uses[expr] == 1 and isinstance(expr, Expr):
            for arg in expr.args:
                count(arg)

    statements: List[str] = []
    names: Dict[Function, str] = {}

    def emit(expr: Function) -> str:
        if expr in names:
            return names[expr]
        if isinstance(expr, str):
            code = leaf.format(expr)
        else:
            code = "(" + rules[expr.kind].format(*map(emit, expr.args)) + ")"
        if uses[expr] == 1 or code.isidentifier():
            return code
        names[expr] = f"t{len(names)}"
        statements.append(f"{names[expr]} = {code}")
        return names[expr]

    for f in functions:
        count(f)
    return statements, [emit(f) for f in functions]


def define(name: str, params: str, body: List[str]) -> Callable:
    """Compile ``def name(params):`` over the (unindented) ``body`` lines."""
    namespace: Dict[str, object] = {}
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(source, namespace)  # noqa: S102 - source built from CELL_DEFS
    return namespace[name]  # type: ignore[return-value]


#: 0/1 integer semantics of each node kind
_SCALAR_RULES = {
    "AND": "{0} & {1}",
    "OR": "{0} | {1}",
    "XOR": "{0} ^ {1}",
    "NOT": "1 - {0}",
    "MUX": "{2} if {0} else {1}",
    "MAJ": "({0} + {1} + {2}) >> 1",
}


def _scalar_function(definition: CellDef) -> Callable[[Mapping[str, int]], Dict[str, int]]:
    """``f(i) -> {output port: value}`` over an input-port mapping ``i``."""
    body, results = straight_line(definition.functions, _SCALAR_RULES, "i[{!r}]")
    outputs = ", ".join(f"{port!r}: {t}" for port, t in zip(definition.outputs, results))
    return define("scalar", "i", body + [f"return {{{outputs}}}"])


_SCALAR = {t: _scalar_function(d) for t, d in CELL_DEFS.items()}


def evaluate_cell(cell_type: CellType, inputs: Mapping[str, int]) -> Dict[str, int]:
    """Evaluate the boolean function of a cell on 0/1 input values.

    ``inputs`` maps input port names to 0 or 1.  The return value maps output
    port names to 0 or 1.  Raises :class:`NetlistError` for missing ports or
    non-binary values.
    """
    definition = cell_def(cell_type)
    for port in definition.inputs:
        if port not in inputs:
            raise NetlistError(f"missing value for input port {port!r} of {cell_type}")
        if inputs[port] not in (0, 1):
            raise NetlistError(
                f"non-binary value {inputs[port]!r} on port {port!r} of {cell_type}"
            )
    return _SCALAR[cell_type](inputs)

