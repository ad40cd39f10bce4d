"""Compiled bit-parallel simulation programs.

:func:`compile_netlist_program` lowers a netlist's topological cell order
into a flat straight-line program over an integer value array: every net is
assigned a slot, and every cell becomes one instruction — ``(cell type,
input slots, output slots)`` — paired with a closure that applies the
cell's packed boolean semantics directly to the array.  The program is built
once per netlist *generation* and replayed on the packed input words of
:mod:`repro.sim.stimulus` — every chunk of an equivalence check, the one
batch of an empirical-switching run — with no per-chunk topological
re-sort, per-cell port-dict lookups or per-type dispatch.  A caller reads
a net's packed result at ``slots[program.slot_of[name]]``.
Threaded closures are used instead of ``exec``-generated per-netlist source
because building them is ~50x cheaper than compiling equivalent Python text
while replaying within a few percent — single-replay callers (one
random-stimulus chunk) stay fast, multi-chunk callers amortize either way.
Only the closure *factories* (:data:`OP_FACTORIES`) are generated code:
once per cell type, at import, from its
:class:`~repro.netlist.cells.CellDef` expression trees.

Cache correctness is structural, not conventional: :func:`cached_program`
memoizes the program in :meth:`Netlist.derived_views`, which is keyed on
:attr:`Netlist.generation`; every structural mutation bumps it, so a stale
program can never be replayed against a rewritten netlist.  A program holds
only slot indices and names, never net objects, so it stays a valid
snapshot of the netlist it was compiled from after that netlist changes —
the equivalence checker uses it as its pre-rewrite reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.netlist.cells import (
    AND,
    CELL_DEFS,
    NOT,
    OR,
    XOR,
    CellDef,
    CellType,
    Expr,
    Function,
    define,
    straight_line,
)
from repro.netlist.core import Netlist

_OpFn = Callable[[List[int], int], None]

#: MUX and MAJ lowered onto AND/OR/XOR/NOT for word-wide evaluation; MAJ
#: reuses ``x ^ y`` so an FA shares that subterm with its sum output
_LOWERINGS = {
    "MUX": lambda s, a, b: OR(AND(b, s), AND(a, NOT(s))),
    "MAJ": lambda x, y, z: OR(AND(x, y), AND(z, XOR(x, y))),
}

#: word-wide operator of each lowered node kind; ``m`` is the all-ones mask
_PACKED_RULES = {"AND": "{0} & {1}", "OR": "{0} | {1}", "XOR": "{0} ^ {1}", "NOT": "m ^ {0}"}


def _lower(expr: Function) -> Function:
    if isinstance(expr, str):
        return expr
    args = tuple(_lower(arg) for arg in expr.args)
    lowering = _LOWERINGS.get(expr.kind)
    return Expr(expr.kind, args) if lowering is None else lowering(*args)


def _op_factory(definition: CellDef) -> Callable[..., _OpFn]:
    """``make(ins, outs)``: binds slot indices into a straight-line packed op."""
    functions = tuple(_lower(f) for f in definition.functions)
    body, results = straight_line(functions, _PACKED_RULES, "v[_{}]")
    body += [f"v[_{port}] = {t}" for port, t in zip(definition.outputs, results)]
    return define(
        "make",
        "ins, outs",
        [
            "".join(f"_{port}, " for port in definition.inputs) + "= ins",
            "".join(f"_{port}, " for port in definition.outputs) + "= outs",
            "def op(v, m):",
            *(f"    {line}" for line in body),
            "return op",
        ],
    )


#: per cell type: closure factory binding slot indices into a packed op,
#: generated from the cell's expression trees
OP_FACTORIES: Dict[CellType, Callable[..., _OpFn]] = {
    cell_type: _op_factory(definition) for cell_type, definition in CELL_DEFS.items()
}

#: per cell type, everything the compiler reads per cell: ``(op name,
#: input ports, output ports, op factory)``, built once
_COMPILE_TABLE: Dict[
    CellType, Tuple[str, Tuple[str, ...], Tuple[str, ...], Callable[..., _OpFn]]
] = {
    cell_type: (
        cell_type.value, definition.inputs, definition.outputs, OP_FACTORIES[cell_type]
    )
    for cell_type, definition in CELL_DEFS.items()
}


@dataclass
class SimProgram:
    """A netlist lowered to a replayable straight-line packed program.

    ``slot_of`` maps every valued net (primary inputs, constants, cell
    outputs) to its index in the value array; ``instructions`` records, per
    cell in topological order, ``(cell_type.value, input_slots,
    output_slots)`` — a stable structural fingerprint that lets tests pin
    compile determinism byte-exactly (see :attr:`source`).
    """

    netlist_name: str
    generation: int
    slot_of: Dict[str, int]
    pi_slots: Tuple[Tuple[str, int], ...]
    const_slots: Tuple[Tuple[int, int], ...]  # (slot, constant bit)
    instructions: Tuple[Tuple[str, Tuple[int, ...], Tuple[int, ...]], ...]
    _ops: Tuple[_OpFn, ...] = field(repr=False, compare=False, default=())

    @property
    def source(self) -> str:
        """Pseudo-source rendering of the program (one line per cell).

        Purely a human-readable / byte-exact-comparison view — replay runs
        the threaded closures, not this text.
        """
        lines = [f"# sim program for {self.netlist_name!r}"]
        for name, slot in self.pi_slots:
            lines.append(f"v[{slot}] = input {name!r}")
        for slot, bit in self.const_slots:
            lines.append(f"v[{slot}] = const {bit}")
        for op_name, ins, outs in self.instructions:
            lines.append(
                f"v[{','.join(map(str, outs))}] = "
                f"{op_name}(v[{','.join(map(str, ins))}])"
            )
        return "\n".join(lines) + "\n"

    def run_packed(self, inputs: Mapping[str, int], mask: int) -> List[int]:
        """Replay the program on packed input words; returns the slot array.

        ``inputs`` maps every primary-input net name to one integer whose
        bit ``k`` is that input's value in vector ``k``; ``mask`` has one
        bit set per vector.  Extra keys are ignored (callers validate input
        names); missing primary inputs raise :class:`SimulationError`.
        """
        v = [0] * len(self.slot_of)
        for slot, bit in self.const_slots:
            v[slot] = mask if bit else 0
        try:
            for name, slot in self.pi_slots:
                v[slot] = inputs[name] & mask
        except KeyError:
            missing = [name for name, _ in self.pi_slots if name not in inputs]
            raise SimulationError(
                f"missing values for {len(missing)} primary inputs "
                f"(e.g. {missing[:5]})"
            ) from None
        for op in self._ops:
            op(v, mask)
        return v


def compile_netlist_program(netlist: Netlist) -> SimProgram:
    """Lower ``netlist`` into a :class:`SimProgram`.

    Slot assignment is deterministic — primary inputs in declaration order,
    then constant nets, then cell outputs in topological order — so
    compiling a structurally identical netlist always yields identical
    ``instructions`` (and :attr:`SimProgram.source`).  A cell input net
    that is neither a primary input, a constant, nor driven by an earlier
    cell is floating; that is diagnosed here, at compile time, with the
    same message the interpreted sweep used to raise mid-evaluation.
    """
    slot_of: Dict[str, int] = {}
    pi_slots: List[Tuple[str, int]] = []
    const_slots: List[Tuple[int, int]] = []

    for net in netlist.primary_inputs:
        slot_of[net.name] = len(slot_of)
        pi_slots.append((net.name, slot_of[net.name]))
    for net in netlist.nets.values():
        if net.is_constant and net.name not in slot_of:
            slot_of[net.name] = len(slot_of)
            const_slots.append((slot_of[net.name], int(net.const_value or 0)))

    instructions: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = []
    ops: List[_OpFn] = []
    for cell in netlist.topological_cells():
        op_name, in_ports, out_ports, make_op = _COMPILE_TABLE[cell.cell_type]
        in_slots: List[int] = []
        for port in in_ports:
            net = cell.inputs[port]
            slot = slot_of.get(net.name)
            if slot is None:
                raise SimulationError(
                    f"net {net.name!r} used by {cell.name!r} has no value"
                )
            in_slots.append(slot)
        out_slots: List[int] = []
        for port in out_ports:
            net = cell.outputs[port]
            slot_of[net.name] = len(slot_of)
            out_slots.append(slot_of[net.name])
        ins, outs = tuple(in_slots), tuple(out_slots)
        instructions.append((op_name, ins, outs))
        ops.append(make_op(ins, outs))

    return SimProgram(
        netlist_name=netlist.name,
        generation=netlist.generation,
        slot_of=slot_of,
        pi_slots=tuple(pi_slots),
        const_slots=tuple(const_slots),
        instructions=tuple(instructions),
        _ops=tuple(ops),
    )


def cached_program(netlist: Netlist) -> SimProgram:
    """The netlist's compiled program, recompiling only after mutations.

    The program is one of the netlist's :meth:`~Netlist.derived_views`;
    any structural mutation bumps the generation and forces a fresh compile
    on next use.  Emits ``sim.program_cache_hits`` / ``sim.program_compiles``
    obs counters, so a test can count how far one compile is amortized
    across replays.
    """
    views = netlist.derived_views()
    program = views.get("sim_program")
    if program is not None:
        obs.counter("sim.program_cache_hits")
        return program  # type: ignore[return-value]
    program = views["sim_program"] = compile_netlist_program(netlist)
    obs.counter("sim.program_compiles")
    return program
