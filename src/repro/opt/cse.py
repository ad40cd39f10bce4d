"""Structural hashing / common-subexpression merging.

Two cells of the same type reading the same input nets compute the same
outputs, so one of them is redundant.  The pass sweeps the netlist in
topological order keeping a hash table of canonical cell signatures; every
later duplicate is retired in favour of the first occurrence.  Because
merges rewire fanout *before* downstream cells are visited, one sweep merges
whole equivalent cones, not just single cells.

Signatures are canonicalized for commutativity: a cell's input nets are
put in the least order reachable through a permutation that preserves its
type's truth table (derived from :data:`repro.netlist.cells.CELL_DEFS`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.netlist.cells import CellType, cell_input_ports, cell_output_ports, evaluate_cell
from repro.netlist.core import Cell, Netlist
from repro.opt.base import RewritePass, retire_cell


def _symmetries(cell_type: CellType) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Input permutations (``perm[k]`` read at position ``k``) that leave
    the cell's truth table unchanged, identity first; ``None`` when every
    permutation does (the least input order is then the sorted one)."""
    ports = cell_input_ports(cell_type)
    rows = list(itertools.product((0, 1), repeat=len(ports)))
    perms = list(itertools.permutations(range(len(ports))))

    def table(perm: Tuple[int, ...]) -> list:
        return [
            evaluate_cell(cell_type, dict(zip(ports, map(bits.__getitem__, perm))))
            for bits in rows
        ]

    identity = table(perms[0])
    group = tuple(perm for perm in perms if table(perm) == identity)
    return None if len(group) == len(perms) else group


_SYMMETRIES = {cell_type: _symmetries(cell_type) for cell_type in CellType}


def _signature(cell: Cell) -> Tuple:
    """Canonical structural signature of a cell (type + input net names)."""
    names = [cell.inputs[p].name for p in cell_input_ports(cell.cell_type)]
    symmetries = _SYMMETRIES[cell.cell_type]
    if symmetries is None:
        names.sort()
    elif len(symmetries) > 1:
        names = min([names[p] for p in perm] for perm in symmetries)
    return (cell.cell_type.value, tuple(names))


class CommonSubexpressionPass(RewritePass):
    """Merge structurally identical cells onto a single instance."""

    name = "cse"

    def run(self, netlist: Netlist) -> int:
        changed = 0
        table: Dict[Tuple, Cell] = {}
        for cell in netlist.topological_cells():
            if cell.cell_type is CellType.BUF:
                # BUFs are either primary-output anchors (must stay put) or
                # transparent wires the cleanup pass removes; merging them
                # only churns the anchor structure.
                continue
            signature = _signature(cell)
            original = table.get(signature)
            if original is None:
                table[signature] = cell
                continue
            replacements = {
                port: original.outputs[port]
                for port in cell_output_ports(cell.cell_type)
            }
            retire_cell(netlist, cell, replacements)
            changed += 1
        return changed
