"""Compiled bit-parallel simulation programs.

:func:`compile_netlist_program` lowers a netlist's topological cell order
into a flat straight-line program over an integer value array: every net is
assigned a slot, and every cell becomes one instruction — ``(cell type,
input slots, output slots)`` — paired with a closure that applies the
cell's packed boolean semantics directly to the array.  The program is built
once per netlist *generation* and replayed for every chunk of an
equivalence check or every batch of an empirical-switching run,
eliminating the per-chunk topological re-sort, per-cell port-dict lookups,
and 16-way type dispatch that used to dominate the packed evaluator.
Threaded closures are used instead of ``exec``-generated source because
building them is ~50x cheaper than compiling equivalent Python text while
replaying within a few percent — single-replay callers (one random-stimulus
chunk) stay fast, multi-chunk callers amortize either way.

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
from repro.netlist.cells import CellType, cell_input_ports, cell_output_ports
from repro.netlist.core import Netlist

_OpFn = Callable[[List[int], int], None]


def _op_fa(ins: Tuple[int, ...], outs: Tuple[int, ...]) -> _OpFn:
    a, b, cin = ins
    s, co = outs

    def op(v: List[int], m: int) -> None:
        t = v[a] ^ v[b]
        v[s] = t ^ v[cin]
        v[co] = (v[a] & v[b]) | (v[cin] & t)

    return op


def _op_ha(ins: Tuple[int, ...], outs: Tuple[int, ...]) -> _OpFn:
    a, b = ins
    s, co = outs

    def op(v: List[int], m: int) -> None:
        v[s] = v[a] ^ v[b]
        v[co] = v[a] & v[b]

    return op


def _op_and2(ins, outs):
    (a, b), (y,) = ins, outs

    def op(v, m):
        v[y] = v[a] & v[b]

    return op


def _op_nand2(ins, outs):
    (a, b), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ (v[a] & v[b])

    return op


def _op_or2(ins, outs):
    (a, b), (y,) = ins, outs

    def op(v, m):
        v[y] = v[a] | v[b]

    return op


def _op_nor2(ins, outs):
    (a, b), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ (v[a] | v[b])

    return op


def _op_xor2(ins, outs):
    (a, b), (y,) = ins, outs

    def op(v, m):
        v[y] = v[a] ^ v[b]

    return op


def _op_xnor2(ins, outs):
    (a, b), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ (v[a] ^ v[b])

    return op


def _op_not(ins, outs):
    (a,), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ v[a]

    return op


def _op_buf(ins, outs):
    (a,), (y,) = ins, outs

    def op(v, m):
        v[y] = v[a]

    return op


def _op_mux2(ins, outs):
    (a, b, sel), (y,) = ins, outs

    def op(v, m):
        s = v[sel]
        v[y] = (v[b] & s) | (v[a] & (m ^ s))

    return op


def _op_aoi21(ins, outs):
    (a, b, c), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ ((v[a] & v[b]) | v[c])

    return op


def _op_oai21(ins, outs):
    (a, b, c), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ ((v[a] | v[b]) & v[c])

    return op


def _op_aoi22(ins, outs):
    (a, b, c, d), (y,) = ins, outs

    def op(v, m):
        v[y] = m ^ ((v[a] & v[b]) | (v[c] & v[d]))

    return op


def _op_xor3(ins, outs):
    (a, b, c), (y,) = ins, outs

    def op(v, m):
        v[y] = v[a] ^ v[b] ^ v[c]

    return op


def _op_maj3(ins, outs):
    (a, b, c), (y,) = ins, outs

    def op(v, m):
        va, vb = v[a], v[b]
        v[y] = (va & vb) | (v[c] & (va | vb))

    return op


#: per cell type: closure factory binding slot indices into a packed op
_OP_FACTORIES: Dict[CellType, Callable[..., _OpFn]] = {
    CellType.FA: _op_fa,
    CellType.HA: _op_ha,
    CellType.AND2: _op_and2,
    CellType.NAND2: _op_nand2,
    CellType.OR2: _op_or2,
    CellType.NOR2: _op_nor2,
    CellType.XOR2: _op_xor2,
    CellType.XNOR2: _op_xnor2,
    CellType.NOT: _op_not,
    CellType.BUF: _op_buf,
    CellType.MUX2: _op_mux2,
    CellType.AOI21: _op_aoi21,
    CellType.OAI21: _op_oai21,
    CellType.AOI22: _op_aoi22,
    CellType.XOR3: _op_xor3,
    CellType.MAJ3: _op_maj3,
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
    def n_slots(self) -> int:
        return len(self.slot_of)

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

    def values_dict(self, slots: List[int]) -> Dict[str, int]:
        """Name-keyed view of a slot array returned by :meth:`run_packed`."""
        return {name: slots[slot] for name, slot in self.slot_of.items()}


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
        in_slots: List[int] = []
        for port in cell_input_ports(cell.cell_type):
            net = cell.inputs[port]
            slot = slot_of.get(net.name)
            if slot is None:
                raise SimulationError(
                    f"net {net.name!r} used by {cell.name!r} has no value"
                )
            in_slots.append(slot)
        out_slots: List[int] = []
        for port in cell_output_ports(cell.cell_type):
            net = cell.outputs[port]
            slot_of[net.name] = len(slot_of)
            out_slots.append(slot_of[net.name])
        ins, outs = tuple(in_slots), tuple(out_slots)
        instructions.append((cell.cell_type.value, ins, outs))
        ops.append(_OP_FACTORIES[cell.cell_type](ins, outs))

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
    obs counters so benchmarks can assert the compile cost is amortized
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
