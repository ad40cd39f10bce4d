"""Mapping targets and objectives: the two axes the subsystem adds.

A *target* names the cell basis the mapped netlist must consist of.  The
special target ``"generic"`` is the identity: the flow's own FA/HA/gate
primitives are kept as built (the paper's protocol) and the map stage is a
no-op.  Every other target resolves to a :class:`repro.tech.TechLibrary`
from :mod:`repro.tech.target_libs`, whose characterized cell set *is* the
basis (``library.cell_types()``).

The *objective* steers template selection in the covering pass:

``area``
    Minimize the summed cell area of the chosen templates.
``delay``
    Minimize the estimated output arrival time of each covered cell, using
    the target library's pin-to-pin arcs and the fanin arrivals accumulated
    during the topological sweep.
``balanced``
    Minimize the sum of both, each normalized by the best candidate.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.choices import (
    GENERIC_TARGET,
    MAP_OBJECTIVE_HELP,
    MAP_OBJECTIVES,
    TARGET_LIB_HELP,
    TARGET_NAMES,
)
from repro.netlist.cells import CellType
from repro.tech.library import TechLibrary
from repro.tech.target_libs import resolve_target_library


def basis_of(library: TechLibrary) -> FrozenSet[CellType]:
    """The cell basis a target library defines."""
    return frozenset(library.cell_types())


__all__ = [
    "GENERIC_TARGET",
    "TARGET_NAMES",
    "MAP_OBJECTIVES",
    "TARGET_LIB_HELP",
    "MAP_OBJECTIVE_HELP",
    "basis_of",
    "resolve_target_library",
]
