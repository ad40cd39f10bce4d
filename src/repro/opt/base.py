"""Shared infrastructure for rewrite passes.

A :class:`RewritePass` mutates a netlist in place and reports how many
rewrites it performed; the :class:`~repro.opt.manager.PassManager` iterates a
pipeline of passes to a fixpoint.  This module also provides the two tools
almost every pass is built from:

* :func:`retire_cell` — replace all readers of a cell's outputs with
  equivalent nets and delete the cell, preserving primary-output nets by
  re-driving them with a ``BUF`` (output buses and the netlist interface keep
  their identity across optimization);
* truth-table classification (:func:`cell_truth_tables`,
  :func:`classify_truth_table`, :func:`materialize`) — evaluate a cell's
  boolean function over its non-constant, deduplicated inputs via
  :func:`repro.netlist.cells.evaluate_cell` and recognize when the function
  collapses to a constant, a wire, an inverter or a smaller two-input gate.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import OptimizationError
from repro.netlist.cells import CellType, cell_input_ports, cell_output_ports, evaluate_cell
from repro.netlist.core import Cell, Net, Netlist


class RewritePass:
    """Base class for netlist rewrite passes.

    Subclasses set :attr:`name` and implement :meth:`run`, returning the
    number of rewrites applied (0 means the pass is at a fixpoint).
    """

    name = "rewrite"

    def run(self, netlist: Netlist) -> int:
        raise NotImplementedError


def retire_cell(netlist: Netlist, cell: Cell, replacements: Mapping[str, Net]) -> None:
    """Remove ``cell``, rerouting every reader of each output to a new net.

    ``replacements`` maps every output port of the cell to the net that now
    carries the same value.  Primary-output nets are never renamed or
    dropped: when a retired cell drove one, the net is re-driven by a ``BUF``
    of its replacement so the netlist interface (and every output bus) stays
    intact.
    """
    ports = cell_output_ports(cell.cell_type)
    missing = [p for p in ports if p not in replacements]
    if missing:
        raise OptimizationError(
            f"retire_cell({cell.name!r}): no replacement for output port(s) {missing}"
        )
    rebind: List[Tuple[Net, Net]] = []
    for port in ports:
        old = cell.outputs[port]
        new = replacements[port]
        if new is old:
            raise OptimizationError(
                f"retire_cell({cell.name!r}): output {port!r} replaced by itself"
            )
        netlist.replace_net_uses(old, new)
        if netlist.is_primary_output(old):
            rebind.append((old, new))
    netlist.remove_cell(cell)
    for old, new in rebind:
        netlist.add_cell(CellType.BUF, {"a": new}, outputs={"y": old})


# ------------------------------------------------------------- truth tables

#: two-input gate types a truth table can be strength-reduced to
_TWO_INPUT_GATES = (
    CellType.AND2,
    CellType.OR2,
    CellType.XOR2,
    CellType.NAND2,
    CellType.NOR2,
    CellType.XNOR2,
)

#: truth table of each two-input gate over (v0, v1) with v0 as bit 0
_GATE_TABLES: Dict[Tuple[int, int, int, int], CellType] = {
    tuple(
        evaluate_cell(gate, {"a": i & 1, "b": (i >> 1) & 1})["y"] for i in range(4)
    ): gate
    for gate in _TWO_INPUT_GATES
}


def free_input_nets(cell: Cell) -> Tuple[List[Net], Dict[str, object]]:
    """Split a cell's inputs into distinct free nets and constant bindings.

    Returns ``(free_nets, const_ports)`` where ``free_nets`` lists the
    distinct non-constant input nets in port order and ``const_ports`` maps
    input port names to their constant 0/1 values.
    """
    free: List[Net] = []
    const_ports: Dict[str, object] = {}
    for port in cell_input_ports(cell.cell_type):
        net = cell.inputs[port]
        if net.is_constant:
            const_ports[port] = int(net.const_value or 0)
        elif all(net is not seen for seen in free):
            free.append(net)
    return free, const_ports


def cell_truth_tables(cell: Cell, free: List[Net]) -> Dict[str, Tuple[int, ...]]:
    """Truth table of every output over the distinct free input nets.

    Combination ``i`` assigns bit ``(i >> k) & 1`` to ``free[k]``; constant
    inputs keep their constant value.  Only call with ``len(free) <= 3``
    (8 combinations at most).
    """
    ports = cell_input_ports(cell.cell_type)
    tables: Dict[str, List[int]] = {p: [] for p in cell_output_ports(cell.cell_type)}
    for i in range(1 << len(free)):
        assignment = {}
        for port in ports:
            net = cell.inputs[port]
            if net.is_constant:
                assignment[port] = int(net.const_value or 0)
            else:
                index = next(k for k, f in enumerate(free) if f is net)
                assignment[port] = (i >> index) & 1
        for out_port, value in evaluate_cell(cell.cell_type, assignment).items():
            tables[out_port].append(value)
    return {port: tuple(values) for port, values in tables.items()}


def classify_truth_table(tt: Tuple[int, ...]) -> Optional[Tuple[str, object]]:
    """Recognize a simpler form of a 1- to 3-variable truth table.

    Returns one of ``("const", 0/1)``, ``("var", k)``, ``("not", k)``,
    ``("gate", (CellType, i, j))`` (a two-input gate over variables ``i``
    and ``j``) or ``None`` when the function genuinely needs three
    variables or is a two-variable function outside the supported gate set.
    """
    if all(v == tt[0] for v in tt):
        return ("const", tt[0])
    nvars = len(tt).bit_length() - 1
    for k in range(nvars):
        projected = tuple(tt[i] for i in range(len(tt)) if not (i >> k) & 1)
        inverse = tuple(tt[i] for i in range(len(tt)) if (i >> k) & 1)
        if projected == inverse:  # does not depend on variable k at all
            reduced = classify_truth_table(projected)
            if reduced is None:
                return None
            kind, arg = reduced
            # renumber the surviving variables back past the eliminated one
            if kind in ("var", "not"):
                arg = int(arg) + (1 if int(arg) >= k else 0)
            elif kind == "gate":
                gate, i, j = arg  # type: ignore[misc]
                arg = (
                    gate,
                    i + (1 if i >= k else 0),
                    j + (1 if j >= k else 0),
                )
            return (kind, arg)
    if nvars == 1:
        return ("var", 0) if tt == (0, 1) else ("not", 0)
    if nvars == 2:
        gate = _GATE_TABLES.get(tuple(tt))
        if gate is not None:
            return ("gate", (gate, 0, 1))
    return None


def materialize(netlist: Netlist, spec: Tuple[str, object], free: List[Net]) -> Net:
    """Build the net computing a classified function of the free nets."""
    kind, arg = spec
    if kind == "const":
        return netlist.const(int(arg))  # type: ignore[arg-type]
    if kind == "var":
        return free[int(arg)]  # type: ignore[arg-type]
    if kind == "not":
        return netlist.add_cell(CellType.NOT, {"a": free[int(arg)]}).outputs["y"]  # type: ignore[arg-type]
    if kind == "gate":
        gate, i, j = arg  # type: ignore[misc]
        cell = netlist.add_cell(gate, {"a": free[i], "b": free[j]})
        return cell.outputs["y"]
    raise OptimizationError(f"unknown function spec {spec!r}")  # pragma: no cover
