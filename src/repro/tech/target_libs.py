"""Technology-mapping target libraries.

Each library here defines a *cell basis*: the set of cell types a mapped
netlist is allowed to contain (``TechLibrary.cell_types()``), plus the
area/delay/energy characterization the post-mapping analyses run against.
Unlike :func:`repro.tech.default_libs.generic_035` — which characterizes the
flow's idealized FA/HA/gate primitives — none of these libraries contains an
FA or HA macro: the whole point of mapping is to lower the compressor tree
onto concrete standard cells.

Three bases ship by default, chosen to stress different corners of the
mapper's objective function:

``nand2_basis``
    The minimal universal basis — NAND2 + inverter (+ buffer).  Everything
    decomposes into long NAND chains, so delay-objective mapping has real
    work to do.
``aoi_rich``
    A rich ASIC-style basis with complex cells (AOI21/OAI21/AOI22), full
    XOR/XNOR, a 3-input XOR and a majority gate, so a full adder maps to as
    little as two cells.
``lowpower_035``
    Non-inverting simple gates with deliberately low per-transition
    energies and slightly slower arcs — the basis a power-driven flow would
    target.

Values follow the same conventions as ``generic_035`` (delays in
nanoseconds, areas in library units, energies per output transition).
"""

from __future__ import annotations

from typing import Dict

from repro.choices import TARGET_LIBRARY_NAMES
from repro.errors import LibraryError
from repro.netlist.cells import CellType
from repro.tech.default_libs import _uniform_delays
from repro.tech.library import CellSpec, TechLibrary


def _spec(
    cell_type: CellType, area: float, delay: float, energy: float
) -> CellSpec:
    """Single-output cell spec with uniform input arcs (all bases use these)."""
    return CellSpec(
        cell_type=cell_type,
        area=area,
        delays=_uniform_delays(cell_type, "y", delay),
        output_energy={"y": energy},
    )


def nand2_basis() -> TechLibrary:
    """The minimal universal basis: NAND2, inverter, buffer."""
    return TechLibrary(
        "nand2_basis",
        {
            CellType.NAND2: _spec(CellType.NAND2, 4.0, 0.11, 0.10),
            CellType.NOT: _spec(CellType.NOT, 2.0, 0.06, 0.05),
            CellType.BUF: _spec(CellType.BUF, 3.0, 0.09, 0.06),
        },
    )


def aoi_rich() -> TechLibrary:
    """An ASIC-style basis rich in complex cells (AOI/OAI/XOR3/MAJ3)."""
    return TechLibrary(
        "aoi_rich",
        {
            CellType.NAND2: _spec(CellType.NAND2, 4.0, 0.11, 0.10),
            CellType.NOR2: _spec(CellType.NOR2, 4.0, 0.12, 0.10),
            CellType.NOT: _spec(CellType.NOT, 2.0, 0.06, 0.05),
            CellType.BUF: _spec(CellType.BUF, 3.0, 0.09, 0.06),
            CellType.XOR2: _spec(CellType.XOR2, 10.0, 0.24, 0.22),
            CellType.XNOR2: _spec(CellType.XNOR2, 10.0, 0.24, 0.22),
            CellType.MUX2: _spec(CellType.MUX2, 8.0, 0.20, 0.18),
            CellType.AOI21: _spec(CellType.AOI21, 5.0, 0.14, 0.11),
            CellType.OAI21: _spec(CellType.OAI21, 5.0, 0.15, 0.11),
            CellType.AOI22: _spec(CellType.AOI22, 7.0, 0.17, 0.14),
            CellType.XOR3: _spec(CellType.XOR3, 16.0, 0.36, 0.34),
            CellType.MAJ3: _spec(CellType.MAJ3, 11.0, 0.22, 0.20),
        },
    )


def lowpower_035() -> TechLibrary:
    """Non-inverting simple gates with low switching energy, slower arcs."""
    return TechLibrary(
        "lowpower_035",
        {
            CellType.AND2: _spec(CellType.AND2, 6.0, 0.19, 0.08),
            CellType.OR2: _spec(CellType.OR2, 6.0, 0.20, 0.08),
            CellType.XOR2: _spec(CellType.XOR2, 10.0, 0.30, 0.15),
            CellType.XNOR2: _spec(CellType.XNOR2, 10.0, 0.30, 0.15),
            CellType.NOT: _spec(CellType.NOT, 2.0, 0.08, 0.03),
            CellType.BUF: _spec(CellType.BUF, 3.0, 0.11, 0.04),
            CellType.MUX2: _spec(CellType.MUX2, 8.0, 0.26, 0.12),
        },
    )


#: builders of every shipped target library, keyed by name
_TARGET_BUILDERS: Dict[str, object] = {
    "nand2_basis": nand2_basis,
    "aoi_rich": aoi_rich,
    "lowpower_035": lowpower_035,
}

assert tuple(_TARGET_BUILDERS) == TARGET_LIBRARY_NAMES, (
    "repro.choices.TARGET_LIBRARY_NAMES is stale"
)


def resolve_target_library(name: str) -> TechLibrary:
    """Build a target library from its registry name.

    Like :func:`repro.tech.default_libs.resolve_library`, names (not library
    objects) travel through configs, sweep points and worker processes; the
    object is rebuilt where it is needed.
    """
    try:
        builder = _TARGET_BUILDERS[name]
    except KeyError:
        raise LibraryError(
            f"unknown target library {name!r} "
            f"(choices: {', '.join(TARGET_LIBRARY_NAMES)})"
        )
    return builder()
