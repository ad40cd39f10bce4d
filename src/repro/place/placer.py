"""Seeded simulated-annealing placement over the fabric grid.

The placer is fully deterministic: a greedy row-scan packs the cells in
topological order (connected logic starts out adjacent), then a
simulated-annealing refinement with a geometric cooling schedule proposes
``place_iters`` random *relocate* (move one cell to a free span) and *swap*
(exchange two equal-footprint cells) moves, accepting by the Metropolis
criterion on the half-perimeter-wirelength (HPWL) cost.  All randomness
comes from one ``random.Random(seed)``, so the same
``(netlist, fabric, seed, iters)`` quadruple always yields the byte-same
placement.

HPWL is evaluated incrementally — a move re-prices only the nets touching
the moved cells — which keeps a move proposal O(pins of the moved cells)
and the whole refinement linear in ``place_iters``.  Connectivity comes
from one integer-indexed :class:`PinTable` per netlist state, shared with
the wire, congestion and clock-tree estimators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import PlaceError
from repro.netlist.core import Netlist
from repro.place.fabric import FabricGrid, footprint, pin_offsets

#: cooling schedule endpoints: the temperature decays geometrically from
#: ``_T_START_SCALE`` x (mean net HPWL) down to ``_T_END`` over the run
_T_START_SCALE = 0.5
_T_END = 0.01


@dataclass
class Placement:
    """A cell -> origin-site assignment on one :class:`FabricGrid`.

    ``origins`` maps cell names to ``(row, col)`` origin sites; the cell
    occupies ``footprint(cell_type)`` contiguous sites from there.  The
    placement never references nets — connectivity stays in the netlist.
    """

    fabric: FabricGrid
    origins: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-able view (cells sorted by name)."""
        return {
            "fabric": self.fabric.to_dict(),
            "cells": {
                name: [row, col]
                for name, (row, col) in sorted(self.origins.items())
            },
        }


@dataclass
class AnnealStats:
    """What the refinement did: move counts and the cost trajectory."""

    moves: int = 0
    accepted: int = 0
    swaps: int = 0
    relocations: int = 0
    initial_hpwl: float = 0.0
    final_hpwl: float = 0.0


def greedy_initial_placement(netlist: Netlist, fabric: FabricGrid) -> Placement:
    """Row-scan packing in topological order (the annealer's starting point).

    Raises :class:`PlaceError` when the fabric cannot hold the netlist.
    """
    placement = Placement(fabric=fabric)
    row, col = 0, 0
    for cell in netlist.topological_cells():
        width = footprint(cell.cell_type)
        if width > fabric.cols:
            raise PlaceError(
                f"cell {cell.name!r} ({cell.cell_type}) is {width} sites wide "
                f"but the fabric has only {fabric.cols} column(s)"
            )
        if col + width > fabric.cols:
            row, col = row + 1, 0
        if row >= fabric.rows:
            raise PlaceError(
                f"fabric {fabric.rows}x{fabric.cols} is too small for "
                f"{netlist.name!r}: ran out of rows after placing "
                f"{len(placement.origins)} of {netlist.num_cells()} cells"
            )
        placement.origins[cell.name] = (row, col)
        col += width
    return placement


@dataclass(frozen=True)
class PinTable:
    """The placer's integer-indexed view of a netlist's connectivity.

    Cells are numbered in name order; ``widths`` holds each cell's
    footprint.  ``net_pins`` lists, per net with at least two cell pins, its
    pins as ``(cell index, dx, dy)`` triples, nets in the order their first
    pin appears when walking cells in creation order (inputs, then outputs);
    ``net_names`` names them.  ``cell_nets`` lists, per cell, the indices of
    its nets in ascending order.  Primary inputs/outputs have no site, so a
    net's wirelength is the half-perimeter over its *cell* pins, and nets
    touching fewer than two cell pins are left out.
    """

    cells: Tuple[str, ...]
    index: Dict[str, int]
    widths: Tuple[int, ...]
    net_names: Tuple[str, ...]
    net_pins: Tuple[Tuple[Tuple[int, float, float], ...], ...]
    cell_nets: Tuple[Tuple[int, ...], ...]

    def positions(self, placement: Placement) -> Tuple[List[int], List[int]]:
        """Per-cell origin ``rows`` and ``cols`` of a full placement."""
        origins = placement.origins
        sites = [origins[name] for name in self.cells]
        return [row for row, _ in sites], [col for _, col in sites]


def _build_pin_table(netlist: Netlist) -> PinTable:
    cells = tuple(sorted(netlist.cells))
    index = {name: i for i, name in enumerate(cells)}
    #: per cell type: its pin offsets and footprint
    shape_of: Dict[object, Tuple[Dict[str, Tuple[float, float]], int]] = {}
    widths = [0] * len(cells)
    pins: Dict[str, List[Tuple[int, float, float]]] = {}
    for cell in netlist.cells.values():
        shape = shape_of.get(cell.cell_type)
        if shape is None:
            shape = shape_of[cell.cell_type] = (
                pin_offsets(cell.cell_type),
                footprint(cell.cell_type),
            )
        offsets, width = shape
        i = index[cell.name]
        widths[i] = width
        for ports in (cell.inputs, cell.outputs):
            for port, net in ports.items():
                dx, dy = offsets[port]
                plist = pins.get(net.name)
                if plist is None:
                    pins[net.name] = [(i, dx, dy)]
                else:
                    plist.append((i, dx, dy))
    net_names = []
    net_pins = []
    cell_nets: List[List[int]] = [[] for _ in cells]
    for name, plist in pins.items():
        if len(plist) < 2:
            continue
        k = len(net_pins)
        net_names.append(name)
        net_pins.append(tuple(plist))
        for i, _, _ in plist:
            nets = cell_nets[i]
            if not nets or nets[-1] != k:
                nets.append(k)
    return PinTable(
        cells=cells,
        index=index,
        widths=tuple(widths),
        net_names=tuple(net_names),
        net_pins=tuple(net_pins),
        cell_nets=tuple(map(tuple, cell_nets)),
    )


def pin_table(netlist: Netlist) -> PinTable:
    """The netlist's :class:`PinTable`, built once per netlist generation.

    Memoized in :meth:`Netlist.derived_views`, so the annealer, the wire
    and congestion estimators and the clock-tree builder of one placement
    share a single build.
    """
    views = netlist.derived_views()
    table = views.get("pin_table")
    if table is None:
        table = views["pin_table"] = _build_pin_table(netlist)
    return table  # type: ignore[return-value]


def net_boxes(
    table: PinTable, rows: List[int], cols: List[int]
) -> List[Tuple[float, float, float, float]]:
    """``(min_x, max_x, min_y, max_y)`` of each table net's placed pins."""
    boxes = []
    for pins in table.net_pins:
        cell, dx, dy = pins[0]
        min_x = max_x = cols[cell] + dx
        min_y = max_y = rows[cell] + dy
        for cell, dx, dy in pins[1:]:
            x = cols[cell] + dx
            y = rows[cell] + dy
            if x < min_x:
                min_x = x
            elif x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            elif y > max_y:
                max_y = y
        boxes.append((min_x, max_x, min_y, max_y))
    return boxes


def net_hpwls(table: PinTable, rows: List[int], cols: List[int]) -> List[float]:
    """Half-perimeter wirelength of each table net, in site units."""
    return [
        (max_x - min_x) + (max_y - min_y)
        for min_x, max_x, min_y, max_y in net_boxes(table, rows, cols)
    ]


def total_hpwl(netlist: Netlist, placement: Placement) -> float:
    """Total half-perimeter wirelength of a placement, in site units."""
    table = pin_table(netlist)
    return sum(net_hpwls(table, *table.positions(placement)))


def anneal(
    netlist: Netlist,
    placement: Placement,
    seed: int,
    iters: int,
) -> AnnealStats:
    """Refine ``placement`` in place with ``iters`` seeded annealing moves.

    The moves work on per-cell ``rows``/``cols`` arrays indexed like the
    :class:`PinTable`; the placement's origins are written back at the end.
    """
    fabric = placement.fabric
    origins = placement.origins
    table = pin_table(netlist)
    rows, cols = table.positions(placement)
    occupancy = [[-1] * fabric.cols for _ in range(fabric.rows)]
    for name, (row, col) in origins.items():
        cell = table.index[name]
        for offset in range(table.widths[cell]):
            occupancy[row][col + offset] = cell
    net_pins = table.net_pins
    cell_nets = table.cell_nets
    net_cost = net_hpwls(table, rows, cols)
    total = sum(net_cost)
    stats = AnnealStats(initial_hpwl=round(total, 6))

    count = len(table.cells)
    widths = table.widths
    by_width: Dict[int, List[int]] = {}
    for cell in range(count):
        by_width.setdefault(widths[cell], []).append(cell)

    rng = random.Random(seed)
    random_, randrange, exp = rng.random, rng.randrange, math.exp
    fabric_rows, fabric_cols = fabric.rows, fabric.cols
    t_start = max(_T_END, _T_START_SCALE * total / max(1, len(net_pins)))
    decay = (_T_END / t_start) ** (1.0 / max(1, iters))
    temperature = t_start

    accepted = swaps = 0
    for _ in range(iters):
        if count >= 2 and random_() < 0.5:
            # swap two equal-footprint cells
            a = randrange(count)
            group = by_width[widths[a]]
            b = group[randrange(len(group))]
            if a == b:
                temperature *= decay
                continue
            row_a, col_a, row_b, col_b = rows[a], cols[a], rows[b], cols[b]
            rows[a], cols[a], rows[b], cols[b] = row_b, col_b, row_a, col_a
            nets_a = cell_nets[a]
            nets = list(nets_a)
            nets.extend(k for k in cell_nets[b] if k not in nets_a)
        else:
            # relocate one cell to a random free span
            a = randrange(count)
            width = widths[a]
            row = randrange(fabric_rows)
            col = randrange(fabric_cols - width + 1)
            row_sites = occupancy[row]
            span = row_sites[col : col + width]
            if span.count(-1) + span.count(a) != width:
                # the span holds another cell
                temperature *= decay
                continue
            b = -1
            old_row, old_col = rows[a], cols[a]
            rows[a], cols[a] = row, col
            nets = cell_nets[a]
        # the trial: re-price the touched nets (``net_boxes`` inlined) and
        # sum the change in the order ``sum()`` would
        costs = []
        delta = 0
        for k in nets:
            pins = net_pins[k]
            cell, dx, dy = pins[0]
            min_x = max_x = cols[cell] + dx
            min_y = max_y = rows[cell] + dy
            for cell, dx, dy in pins[1:]:
                x = cols[cell] + dx
                y = rows[cell] + dy
                if x < min_x:
                    min_x = x
                elif x > max_x:
                    max_x = x
                if y < min_y:
                    min_y = y
                elif y > max_y:
                    max_y = y
            cost = (max_x - min_x) + (max_y - min_y)
            costs.append(cost)
            delta += cost - net_cost[k]
        if delta <= 0.0 or random_() < exp(-delta / temperature):
            for k, cost in zip(nets, costs):
                net_cost[k] = cost
            accepted += 1
            if b >= 0:
                for offset in range(widths[a]):
                    occupancy[row_a][col_a + offset] = b
                    occupancy[row_b][col_b + offset] = a
                swaps += 1
            else:
                # free the old span before taking the new one: the two
                # overlap when the cell slides along its own row
                for offset in range(width):
                    occupancy[old_row][old_col + offset] = -1
                for offset in range(width):
                    row_sites[col + offset] = a
        elif b >= 0:
            rows[a], cols[a], rows[b], cols[b] = row_a, col_a, row_b, col_b
        else:
            rows[a], cols[a] = old_row, old_col
        temperature *= decay

    stats.moves = max(0, iters)
    stats.accepted, stats.swaps = accepted, swaps
    stats.relocations = accepted - swaps
    for cell, name in enumerate(table.cells):
        origins[name] = (rows[cell], cols[cell])
    stats.final_hpwl = round(sum(net_cost), 6)
    return stats
