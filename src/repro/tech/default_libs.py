"""Default technology libraries.

:func:`generic_035` is a stand-in for the LSI Logic ``lcbg10pv`` 0.35 um
library used in the paper.  Absolute values are not reproduced (the databook
is proprietary); the values below were chosen so that

* the FA sum/carry delay ratio (Ds > Dc) and the gate-to-FA delay ratios match
  typical 0.35 um standard cells,
* the FA sum output consumes more switching energy than the carry output
  (Ws > Wc, and ``2*sqrt(Ws) >= sqrt(Wc)`` so Property 1 of the paper applies),
* absolute delays land in the low-nanosecond range and absolute powers in the
  hundreds-of-milliwatt range reported by Tables 1 and 2.

Because every synthesis method is evaluated against the *same* library, the
relative comparisons (the shape of Tables 1 and 2) do not depend on these
absolute choices; ``tests/test_paper_claims.py`` sweeps the FA parameters
to demonstrate that.
"""

from __future__ import annotations

from typing import Dict

from repro.choices import LIBRARY_NAMES
from repro.errors import LibraryError
from repro.netlist.cells import CellType, cell_input_ports
from repro.tech.library import CellSpec, TechLibrary


def _uniform_delays(cell_type: CellType, output_port: str, delay: float) -> Dict:
    """Build an arc dict giving every input the same delay to one output."""
    return {(port, output_port): delay for port in cell_input_ports(cell_type)}


def generic_035() -> TechLibrary:
    """A generic 0.35 um-like library (stand-in for lcbg10pv)."""
    cells = {
        CellType.FA: CellSpec(
            cell_type=CellType.FA,
            area=28.0,
            delays={
                **_uniform_delays(CellType.FA, "s", 0.42),
                **_uniform_delays(CellType.FA, "co", 0.28),
            },
            output_energy={"s": 0.60, "co": 0.45},
        ),
        CellType.HA: CellSpec(
            cell_type=CellType.HA,
            area=16.0,
            delays={
                **_uniform_delays(CellType.HA, "s", 0.30),
                **_uniform_delays(CellType.HA, "co", 0.18),
            },
            output_energy={"s": 0.35, "co": 0.25},
        ),
        CellType.AND2: CellSpec(
            cell_type=CellType.AND2,
            area=6.0,
            delays=_uniform_delays(CellType.AND2, "y", 0.15),
            output_energy={"y": 0.12},
        ),
        CellType.NAND2: CellSpec(
            cell_type=CellType.NAND2,
            area=4.0,
            delays=_uniform_delays(CellType.NAND2, "y", 0.11),
            output_energy={"y": 0.10},
        ),
        CellType.OR2: CellSpec(
            cell_type=CellType.OR2,
            area=6.0,
            delays=_uniform_delays(CellType.OR2, "y", 0.16),
            output_energy={"y": 0.12},
        ),
        CellType.NOR2: CellSpec(
            cell_type=CellType.NOR2,
            area=4.0,
            delays=_uniform_delays(CellType.NOR2, "y", 0.12),
            output_energy={"y": 0.10},
        ),
        CellType.XOR2: CellSpec(
            cell_type=CellType.XOR2,
            area=10.0,
            delays=_uniform_delays(CellType.XOR2, "y", 0.24),
            output_energy={"y": 0.22},
        ),
        CellType.XNOR2: CellSpec(
            cell_type=CellType.XNOR2,
            area=10.0,
            delays=_uniform_delays(CellType.XNOR2, "y", 0.24),
            output_energy={"y": 0.22},
        ),
        CellType.NOT: CellSpec(
            cell_type=CellType.NOT,
            area=2.0,
            delays=_uniform_delays(CellType.NOT, "y", 0.06),
            output_energy={"y": 0.05},
        ),
        CellType.BUF: CellSpec(
            cell_type=CellType.BUF,
            area=3.0,
            delays=_uniform_delays(CellType.BUF, "y", 0.09),
            output_energy={"y": 0.06},
        ),
        CellType.MUX2: CellSpec(
            cell_type=CellType.MUX2,
            area=8.0,
            delays=_uniform_delays(CellType.MUX2, "y", 0.20),
            output_energy={"y": 0.18},
        ),
        CellType.AOI21: CellSpec(
            cell_type=CellType.AOI21,
            area=5.0,
            delays=_uniform_delays(CellType.AOI21, "y", 0.14),
            output_energy={"y": 0.11},
        ),
        CellType.OAI21: CellSpec(
            cell_type=CellType.OAI21,
            area=5.0,
            delays=_uniform_delays(CellType.OAI21, "y", 0.15),
            output_energy={"y": 0.11},
        ),
        CellType.AOI22: CellSpec(
            cell_type=CellType.AOI22,
            area=7.0,
            delays=_uniform_delays(CellType.AOI22, "y", 0.17),
            output_energy={"y": 0.14},
        ),
        CellType.XOR3: CellSpec(
            cell_type=CellType.XOR3,
            area=16.0,
            delays=_uniform_delays(CellType.XOR3, "y", 0.36),
            output_energy={"y": 0.34},
        ),
        CellType.MAJ3: CellSpec(
            cell_type=CellType.MAJ3,
            area=11.0,
            delays=_uniform_delays(CellType.MAJ3, "y", 0.22),
            output_energy={"y": 0.20},
        ),
    }
    return TechLibrary("generic_035", cells)


def unit_library() -> TechLibrary:
    """Unit delays/areas/energies for algorithm-level tests and examples.

    FA delays are Ds=2, Dc=1 and HA delays are Ds=2, Dc=1, matching the values
    used in the motivating example of Figure 2 of the paper; all other cells
    have delay 1, area 1, energy 1.  FA output energies are Ws=Wc=1, matching
    Figure 4.
    """
    cells: Dict[CellType, CellSpec] = {}
    for cell_type in CellType:
        if cell_type is CellType.FA:
            spec = CellSpec(
                cell_type=cell_type,
                area=1.0,
                delays={
                    **_uniform_delays(cell_type, "s", 2.0),
                    **_uniform_delays(cell_type, "co", 1.0),
                },
                output_energy={"s": 1.0, "co": 1.0},
            )
        elif cell_type is CellType.HA:
            spec = CellSpec(
                cell_type=cell_type,
                area=1.0,
                delays={
                    **_uniform_delays(cell_type, "s", 2.0),
                    **_uniform_delays(cell_type, "co", 1.0),
                },
                output_energy={"s": 1.0, "co": 1.0},
            )
        else:
            output_port = "y"
            spec = CellSpec(
                cell_type=cell_type,
                area=1.0,
                delays=_uniform_delays(cell_type, output_port, 1.0),
                output_energy={output_port: 1.0},
            )
        cells[cell_type] = spec
    return TechLibrary("unit", cells)


def scaled_library(
    fa_sum_delay: float,
    fa_carry_delay: float,
    base: TechLibrary = None,
    name: str = None,
) -> TechLibrary:
    """Clone a library with overridden FA sum/carry delays.

    Used by the Ds/Dc-sensitivity ablation.  Only the FA cell's arcs
    are changed; everything else is shared with ``base`` (default
    :func:`generic_035`).
    """
    base = base or generic_035()
    cells = {}
    for cell_type in CellType:
        if not base.has_cell(cell_type):
            continue
        spec = base.spec(cell_type)
        if cell_type is CellType.FA:
            spec = CellSpec(
                cell_type=CellType.FA,
                area=spec.area,
                delays={
                    **_uniform_delays(CellType.FA, "s", fa_sum_delay),
                    **_uniform_delays(CellType.FA, "co", fa_carry_delay),
                },
                output_energy=dict(spec.output_energy),
            )
        cells[cell_type] = spec
    label = name or f"{base.name}_fa_{fa_sum_delay:g}_{fa_carry_delay:g}"
    return TechLibrary(label, cells)


#: builders of every default library, keyed by the names in
#: :data:`repro.choices.LIBRARY_NAMES`
_LIBRARY_BUILDERS = {"generic_035": generic_035, "unit": unit_library}
assert tuple(_LIBRARY_BUILDERS) == LIBRARY_NAMES, "repro.choices.LIBRARY_NAMES is stale"


def resolve_library(name: str) -> TechLibrary:
    """Build a default library from its registry name.

    Used by the CLI and the exploration engine so that a sweep point can
    reference a library by name (names are picklable and hashable, library
    objects are rebuilt inside worker processes).
    """
    try:
        builder = _LIBRARY_BUILDERS[name]
    except KeyError:
        raise LibraryError(
            f"unknown library {name!r} (choices: {', '.join(LIBRARY_NAMES)})"
        ) from None
    return builder()
