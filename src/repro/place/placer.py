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

    def pin_position(
        self, cell_name: str, dx: float, dy: float
    ) -> Tuple[float, float]:
        """Absolute ``(x, y)`` of a pin given its declarative offset."""
        row, col = self.origins[cell_name]
        return (col + dx, row + dy)

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
    offsets_of: Dict[object, Dict[str, Tuple[float, float]]] = {}
    pins: Dict[str, List[Tuple[int, float, float]]] = {}
    for cell in netlist.cells.values():
        offsets = offsets_of.get(cell.cell_type)
        if offsets is None:
            offsets = offsets_of[cell.cell_type] = pin_offsets(cell.cell_type)
        i = index[cell.name]
        for ports in (cell.inputs, cell.outputs):
            for port, net in ports.items():
                dx, dy = offsets[port]
                pins.setdefault(net.name, []).append((i, dx, dy))
    nets = [(name, tuple(plist)) for name, plist in pins.items() if len(plist) >= 2]
    cell_nets: List[List[int]] = [[] for _ in cells]
    for k, (_, plist) in enumerate(nets):
        for i, _, _ in plist:
            if not cell_nets[i] or cell_nets[i][-1] != k:
                cell_nets[i].append(k)
    return PinTable(
        cells=cells,
        index=index,
        widths=tuple(footprint(netlist.cells[name].cell_type) for name in cells),
        net_names=tuple(name for name, _ in nets),
        net_pins=tuple(plist for _, plist in nets),
        cell_nets=tuple(tuple(k) for k in cell_nets),
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


def _bbox(
    pins: Tuple[Tuple[int, float, float], ...], rows: List[int], cols: List[int]
) -> Tuple[float, float, float, float]:
    """``(min_x, max_x, min_y, max_y)`` of one net's placed pins."""
    first, dx, dy = pins[0]
    min_x = max_x = cols[first] + dx
    min_y = max_y = rows[first] + dy
    for cell, dx, dy in pins[1:]:
        x, y = cols[cell] + dx, rows[cell] + dy
        if x < min_x:
            min_x = x
        elif x > max_x:
            max_x = x
        if y < min_y:
            min_y = y
        elif y > max_y:
            max_y = y
    return min_x, max_x, min_y, max_y


def _hpwl(
    pins: Tuple[Tuple[int, float, float], ...], rows: List[int], cols: List[int]
) -> float:
    """Half-perimeter of the bounding box of one net's pins."""
    min_x, max_x, min_y, max_y = _bbox(pins, rows, cols)
    return (max_x - min_x) + (max_y - min_y)


def total_hpwl(netlist: Netlist, placement: Placement) -> float:
    """Total half-perimeter wirelength of a placement, in site units."""
    table = pin_table(netlist)
    rows, cols = table.positions(placement)
    return sum(_hpwl(pins, rows, cols) for pins in table.net_pins)


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
    net_cost = [_hpwl(pins, rows, cols) for pins in net_pins]
    total = sum(net_cost)
    stats = AnnealStats(initial_hpwl=round(total, 6))

    count = len(table.cells)
    widths = table.widths
    by_width: Dict[int, List[int]] = {}
    for cell in range(count):
        by_width.setdefault(widths[cell], []).append(cell)

    rng = random.Random(seed)
    t_start = max(_T_END, _T_START_SCALE * total / max(1, len(net_pins)))
    decay = (_T_END / t_start) ** (1.0 / max(1, iters))
    temperature = t_start

    def trial(nets: List[int]) -> Tuple[List[float], float]:
        """New costs of ``nets`` at the moved positions, and the cost change."""
        costs = [_hpwl(net_pins[k], rows, cols) for k in nets]
        return costs, sum(new - net_cost[k] for new, k in zip(costs, nets))

    for _ in range(iters):
        stats.moves += 1
        if count >= 2 and rng.random() < 0.5:
            # swap two equal-footprint cells
            a = rng.randrange(count)
            group = by_width[widths[a]]
            b = group[rng.randrange(len(group))]
            if a == b:
                temperature *= decay
                continue
            row_a, col_a, row_b, col_b = rows[a], cols[a], rows[b], cols[b]
            rows[a], cols[a], rows[b], cols[b] = row_b, col_b, row_a, col_a
            nets_a = cell_nets[a]
            nets = list(nets_a)
            nets.extend(k for k in cell_nets[b] if k not in nets_a)
            costs, delta = trial(nets)
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                for k, cost in zip(nets, costs):
                    net_cost[k] = cost
                for offset in range(widths[a]):
                    occupancy[row_a][col_a + offset] = b
                    occupancy[row_b][col_b + offset] = a
                stats.accepted += 1
                stats.swaps += 1
            else:
                rows[a], cols[a], rows[b], cols[b] = row_a, col_a, row_b, col_b
        else:
            # relocate one cell to a random free span
            cell = rng.randrange(count)
            width = widths[cell]
            row = rng.randrange(fabric.rows)
            col = rng.randrange(fabric.cols - width + 1)
            row_sites = occupancy[row]
            if any(
                row_sites[col + offset] not in (-1, cell) for offset in range(width)
            ):
                temperature *= decay
                continue
            old_row, old_col = rows[cell], cols[cell]
            rows[cell], cols[cell] = row, col
            nets = cell_nets[cell]
            costs, delta = trial(nets)
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                for k, cost in zip(nets, costs):
                    net_cost[k] = cost
                # free the old span before taking the new one: the two
                # overlap when the cell slides along its own row
                for offset in range(width):
                    occupancy[old_row][old_col + offset] = -1
                for offset in range(width):
                    row_sites[col + offset] = cell
                stats.accepted += 1
                stats.relocations += 1
            else:
                rows[cell], cols[cell] = old_row, old_col
        temperature *= decay

    for cell, name in enumerate(table.cells):
        origins[name] = (rows[cell], cols[cell])
    stats.final_hpwl = round(sum(net_cost), 6)
    return stats
