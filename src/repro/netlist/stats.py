"""Netlist statistics: cell counts, area, logic depth.

Area is computed against a technology library (see :mod:`repro.tech`); the
structural statistics (counts, depth) are library-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.netlist.cells import CellType
from repro.netlist.core import Cell, Netlist


@dataclass
class NetlistStats:
    """Summary statistics of a netlist."""

    name: str
    cell_counts: Dict[str, int] = field(default_factory=dict)
    num_cells: int = 0
    num_nets: int = 0
    num_inputs: int = 0
    num_outputs: int = 0
    logic_depth: int = 0
    area: Optional[float] = None

    def count(self, cell_type: CellType) -> int:
        """Number of instances of ``cell_type``."""
        return self.cell_counts.get(cell_type.value, 0)

    def summary(self) -> str:
        """One-line human-readable summary."""
        counts = ", ".join(f"{k}:{v}" for k, v in sorted(self.cell_counts.items()))
        area_text = f", area={self.area:.1f}" if self.area is not None else ""
        return (
            f"{self.name}: {self.num_cells} cells ({counts}), depth={self.logic_depth}"
            f"{area_text}"
        )


def logic_depth(netlist: Netlist) -> int:
    """Maximum number of cells on any input-to-output path."""
    depth: Dict[Cell, int] = {}
    best = 0
    for cell in netlist.topological_cells():
        level = 0
        for net in cell.inputs.values():
            driver = net.driver
            if driver is not None:
                driver_level = depth.get(driver[0], 0)
                if driver_level > level:
                    level = driver_level
        level += 1
        depth[cell] = level
        if level > best:
            best = level
    return best


def _structure(netlist: Netlist) -> Tuple[Dict[str, int], int]:
    """Cell counts and logic depth, memoized per netlist generation."""
    views = netlist.derived_views()
    structure = views.get("structure_stats")
    if structure is None:
        by_member: Dict[CellType, int] = {}
        for cell in netlist.cells.values():
            by_member[cell.cell_type] = by_member.get(cell.cell_type, 0) + 1
        counts = {cell_type.value: n for cell_type, n in by_member.items()}
        structure = views["structure_stats"] = (counts, logic_depth(netlist))
    return structure  # type: ignore[return-value]


def _area(netlist: Netlist, library: object) -> float:
    """Total cell area against ``library``, memoized per generation and library.

    Summed cell by cell in creation order, so the float is the same one a
    fresh sum would give.  The entry keeps the library alive, so the
    ``id()`` in its key cannot be reused while it is cached.
    """
    views = netlist.derived_views()
    key = ("area", id(library))
    entry = views.get(key)
    if entry is None:
        areas = library.cell_areas()  # type: ignore[attr-defined]
        area = 0.0
        for cell in netlist.cells.values():
            cell_area = areas.get(cell.cell_type)
            if cell_area is None:  # not characterized: the library raises
                cell_area = library.area(cell.cell_type)  # type: ignore[attr-defined]
            area += cell_area
        entry = views[key] = (library, area)
    return entry[1]  # type: ignore[index]


def netlist_stats(netlist: Netlist, library: Optional[object] = None) -> NetlistStats:
    """Compute :class:`NetlistStats` for ``netlist``.

    ``library`` may be a :class:`repro.tech.TechLibrary`; when provided, total
    cell area is included.  Counts, depth and area are memoized views of the
    netlist (:meth:`Netlist.derived_views`); every call returns a fresh
    :class:`NetlistStats` with its own ``cell_counts`` dict.
    """
    counts, depth = _structure(netlist)
    return NetlistStats(
        name=netlist.name,
        cell_counts=dict(counts),
        num_cells=len(netlist.cells),
        num_nets=len(netlist.nets),
        num_inputs=len(netlist.primary_inputs),
        num_outputs=len(netlist.primary_outputs),
        logic_depth=depth,
        area=None if library is None else _area(netlist, library),
    )
