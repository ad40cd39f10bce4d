"""Structural placement validation.

A placement is *structurally sound* when every netlist cell is placed
exactly once, every footprint lies inside the fabric, and no two
footprints share a site.  The validator also guards the subsystem's core
contract — placement is pure geometry and must never touch connectivity —
by checking that the placement names exactly the netlist's cells (it
cannot invent or drop logic).

:func:`validate_placement` returns human-readable findings (empty list =
sound); :func:`check_placement` raises :class:`~repro.errors.PlaceError`
on the first sweep, for use as a hard gate inside the flow stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import PlaceError
from repro.netlist.core import Netlist
from repro.place.fabric import footprint
from repro.place.placer import Placement


def validate_placement(netlist: Netlist, placement: Placement) -> List[str]:
    """Every structural finding of ``placement`` against ``netlist``."""
    findings: List[str] = []
    fabric = placement.fabric
    for name in sorted(set(netlist.cells) - set(placement.origins)):
        findings.append(f"cell {name!r} is not placed")
    for name in sorted(set(placement.origins) - set(netlist.cells)):
        findings.append(f"placement names unknown cell {name!r}")

    sites: Dict[Tuple[int, int], str] = {}
    for name in sorted(placement.origins):
        if name not in netlist.cells:
            continue
        row, col = placement.origins[name]
        width = footprint(netlist.cells[name].cell_type)
        if not fabric.fits(netlist.cells[name].cell_type, row, col):
            findings.append(
                f"cell {name!r} at ({row}, {col}) x{width} exceeds the "
                f"{fabric.rows}x{fabric.cols} fabric"
            )
            continue
        for offset in range(width):
            site = (row, col + offset)
            if site in sites:
                findings.append(
                    f"cells {sites[site]!r} and {name!r} overlap at site {site}"
                )
            else:
                sites[site] = name
    return findings


def check_placement(
    netlist: Netlist,
    placement: Placement,
    findings: Optional[List[str]] = None,
) -> None:
    """Raise :class:`PlaceError` when the placement is structurally broken.

    ``findings`` gates on an already computed :func:`validate_placement`
    result instead of validating again.
    """
    if findings is None:
        findings = validate_placement(netlist, placement)
    if findings:
        raise PlaceError(
            f"placement of {netlist.name!r} failed validation "
            f"({len(findings)} finding(s)): " + "; ".join(findings[:5])
        )
