"""The fabric grid model: a declarative array of placement sites.

A fabric is ``rows`` placement rows of ``cols`` unit sites each.  Every
cell occupies one row and a contiguous run of sites whose length is the
cell type's *footprint* (:data:`SITE_FOOTPRINTS`); a placement is therefore
fully described by the origin site ``(row, col)`` of every cell.  Pin
positions are derived from declarative per-type *pin offsets* — fractions
of the footprint measured from the cell origin — so wirelength and clock
metrics see pins, not just cell origins.

All geometry is expressed in site units (one site pitch = 1.0); the wire
and clock delay constants below convert geometric length into nanoseconds
with a deliberately simple linear model, sized so that typical nets add a
few tens of picoseconds against gate delays in the 0.06–0.42 ns range of
the bundled libraries.

:func:`auto_size` picks a near-square fabric for a netlist at a target
utilization — the default when ``FlowConfig.fabric_rows``/``fabric_cols``
are left ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import PlaceError
from repro.netlist.cells import CELL_DEFS, CellType, cell_input_ports, cell_output_ports
from repro.netlist.core import Netlist

#: sites occupied by one cell of each type (1 row tall, N sites wide), from
#: the cell records
SITE_FOOTPRINTS: Dict[CellType, int] = {t: d.footprint for t, d in CELL_DEFS.items()}

#: added net delay per site pitch of half-perimeter wirelength, in ns —
#: the linear wire model (see :mod:`repro.place.wires`)
WIRE_DELAY_NS_PER_SITE = 0.002

#: clock-tree wire delay per site pitch and per-branching-level buffer
#: delay, in ns (see :mod:`repro.place.cts`)
CLOCK_WIRE_DELAY_NS_PER_SITE = 0.0015
CLOCK_BUFFER_DELAY_NS = 0.05

#: default fill fraction targeted by :func:`auto_size`
DEFAULT_UTILIZATION = 0.6


def footprint(cell_type: CellType) -> int:
    """Sites occupied by one cell of ``cell_type`` (always >= 1)."""
    try:
        return SITE_FOOTPRINTS[cell_type]
    except KeyError as exc:  # pragma: no cover - defensive
        raise PlaceError(f"no site footprint for cell type {cell_type!r}") from exc


def pin_offsets(cell_type: CellType) -> Dict[str, Tuple[float, float]]:
    """Per-port ``(dx, dy)`` pin positions relative to the cell origin.

    Input pins are spread evenly along the bottom edge (``dy=0.0``) of the
    footprint, output pins along the top edge (``dy=1.0``), mirroring how
    row-based standard cells expose pins on their rails.  Derived from the
    port tables, so every cell type is covered by construction.
    """
    width = float(footprint(cell_type))
    offsets: Dict[str, Tuple[float, float]] = {}
    inputs = cell_input_ports(cell_type)
    for i, port in enumerate(inputs):
        offsets[port] = (width * (i + 0.5) / len(inputs), 0.0)
    outputs = cell_output_ports(cell_type)
    for i, port in enumerate(outputs):
        offsets[port] = (width * (i + 0.5) / len(outputs), 1.0)
    return offsets


@dataclass(frozen=True)
class FabricGrid:
    """A rows x cols array of unit placement sites."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise PlaceError(
                f"fabric must have at least one row and one column, "
                f"got {self.rows}x{self.cols}"
            )

    @property
    def capacity(self) -> int:
        """Total number of sites."""
        return self.rows * self.cols

    def fits(self, cell_type: CellType, row: int, col: int) -> bool:
        """Whether a cell of ``cell_type`` at origin ``(row, col)`` is in bounds."""
        return (
            0 <= row < self.rows
            and 0 <= col
            and col + footprint(cell_type) <= self.cols
        )

    def to_dict(self) -> Dict[str, int]:
        """JSON-able view (used by reports and artifacts)."""
        return {"rows": self.rows, "cols": self.cols}


def site_demand(netlist: Netlist) -> int:
    """Total sites the netlist's cells need (the lower bound on capacity)."""
    return sum(footprint(cell.cell_type) for cell in netlist.cells.values())


def auto_size(
    netlist: Netlist, utilization: float = DEFAULT_UTILIZATION
) -> FabricGrid:
    """A near-square fabric sized for ``netlist`` at ``utilization`` fill.

    The widest footprint bounds the column count from below so every cell
    can be placed even on tiny designs.  Deterministic: depends only on the
    netlist's cell population.
    """
    if not 0.0 < utilization <= 1.0:
        raise PlaceError(f"utilization must be in (0, 1], got {utilization}")
    demand = site_demand(netlist)
    if demand == 0:
        return FabricGrid(rows=1, cols=1)
    target = max(demand, int(math.ceil(demand / utilization)))
    cols = max(
        int(math.ceil(math.sqrt(target))),
        max(footprint(cell.cell_type) for cell in netlist.cells.values()),
    )
    rows = int(math.ceil(target / cols))
    return FabricGrid(rows=rows, cols=cols)
