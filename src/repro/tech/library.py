"""Technology library data model.

The library abstraction is intentionally simple — per-cell constant pin-to-pin
delays, a single area number and a per-output energy-per-transition — because
that is the level of detail the DAC 2000 evaluation depends on: the FA delay
parameters ``Ds``/``Dc`` drive the timing algorithm, the FA output energies
``Ws``/``Wc`` drive the power algorithm, and area is a sum of cell areas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import LibraryError
from repro.netlist.cells import CellType, cell_input_ports, cell_output_ports


@dataclass
class CellSpec:
    """Timing/area/power characterization of one cell type.

    Attributes
    ----------
    cell_type:
        The cell this spec describes.
    area:
        Cell area in library units.
    delays:
        Mapping ``(input_port, output_port) -> delay`` in nanoseconds.  A
        missing arc defaults to the worst arc for that output if
        ``default_delay`` is set on the library, otherwise it is an error.
    output_energy:
        Mapping ``output_port -> energy`` consumed per output transition
        (arbitrary but consistent units; the default library uses mW per unit
        switching activity to mirror the paper's reporting).
    """

    cell_type: CellType
    area: float
    delays: Dict[Tuple[str, str], float] = field(default_factory=dict)
    output_energy: Dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        """Check that all arcs reference real ports of the cell type."""
        in_ports = set(cell_input_ports(self.cell_type))
        out_ports = set(cell_output_ports(self.cell_type))
        for (src, dst) in self.delays:
            if src not in in_ports or dst not in out_ports:
                raise LibraryError(
                    f"{self.cell_type}: delay arc {src}->{dst} references unknown ports"
                )
        for port in self.output_energy:
            if port not in out_ports:
                raise LibraryError(
                    f"{self.cell_type}: energy for unknown output port {port!r}"
                )


#: per output port in declared order: that port and, per input port in
#: declared order, the input port and its arc delay
OutputArcs = Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...]


class TechLibrary:
    """A collection of :class:`CellSpec` objects addressed by cell type.

    The specs are read-only once the library is built: the per-cell-type
    tables (:meth:`output_arcs`, :meth:`output_energies`,
    :meth:`worst_delay`, :meth:`cell_areas`) are built from them on first
    use and memoized, so a spec changed afterwards would not be seen.
    """

    def __init__(self, name: str, cells: Mapping[CellType, CellSpec]) -> None:
        self.name = name
        self._cells: Dict[CellType, CellSpec] = dict(cells)
        for spec in self._cells.values():
            spec.validate()
        self._arcs: Dict[CellType, OutputArcs] = {}
        self._energies: Dict[CellType, Tuple[Tuple[str, float], ...]] = {}
        self._worst: Dict[Tuple[CellType, str], float] = {}
        self._areas: Optional[Dict[CellType, float]] = None

    # ----------------------------------------------------------------- access
    def has_cell(self, cell_type: CellType) -> bool:
        """True when the library characterizes ``cell_type``."""
        return cell_type in self._cells

    def cell_types(self) -> Tuple[CellType, ...]:
        """Every cell type the library characterizes (its cell basis)."""
        return tuple(self._cells)

    def spec(self, cell_type: CellType) -> CellSpec:
        """The :class:`CellSpec` for ``cell_type`` (raises if absent)."""
        try:
            return self._cells[cell_type]
        except KeyError as exc:
            raise LibraryError(
                f"library {self.name!r} has no cell of type {cell_type}"
            ) from exc

    def area(self, cell_type: CellType) -> float:
        """Area of one instance of ``cell_type``."""
        return self.spec(cell_type).area

    def delay(self, cell_type: CellType, input_port: str, output_port: str) -> float:
        """Pin-to-pin delay for the given arc."""
        spec = self.spec(cell_type)
        key = (input_port, output_port)
        if key in spec.delays:
            return spec.delays[key]
        # Fall back to the worst specified arc into this output.
        candidates = [d for (src, dst), d in spec.delays.items() if dst == output_port]
        if candidates:
            return max(candidates)
        raise LibraryError(
            f"library {self.name!r}: no delay arc {input_port}->{output_port} "
            f"for cell {cell_type}"
        )

    def worst_delay(self, cell_type: CellType, output_port: str) -> float:
        """Worst pin-to-pin delay into ``output_port`` (memoized)."""
        key = (cell_type, output_port)
        worst = self._worst.get(key)
        if worst is None:
            spec = self.spec(cell_type)
            candidates = [d for (_, dst), d in spec.delays.items() if dst == output_port]
            if not candidates:
                raise LibraryError(
                    f"library {self.name!r}: no delay arcs into {cell_type}.{output_port}"
                )
            worst = self._worst[key] = max(candidates)
        return worst

    def energy(self, cell_type: CellType, output_port: str) -> float:
        """Energy per transition of ``output_port``."""
        spec = self.spec(cell_type)
        if output_port not in spec.output_energy:
            raise LibraryError(
                f"library {self.name!r}: no energy for {cell_type}.{output_port}"
            )
        return spec.output_energy[output_port]

    # ------------------------------------------------- per-cell-type tables
    def output_arcs(self, cell_type: CellType) -> OutputArcs:
        """Every arc of ``cell_type``, output by output (memoized).

        ``((out_port, ((in_port, delay), ...)), ...)`` with both port lists
        in declared order; each delay is :meth:`delay` of that arc, worst-arc
        fallback included, and a missing cell or an output with no arc at
        all raises the same :class:`LibraryError` as :meth:`delay`.
        """
        arcs = self._arcs.get(cell_type)
        if arcs is None:
            in_ports = cell_input_ports(cell_type)
            arcs = self._arcs[cell_type] = tuple(
                (out, tuple((port, self.delay(cell_type, port, out)) for port in in_ports))
                for out in cell_output_ports(cell_type)
            )
        return arcs

    def output_energies(self, cell_type: CellType) -> Tuple[Tuple[str, float], ...]:
        """``((out_port, energy), ...)`` in declared port order (memoized).

        Each energy is :meth:`energy` of that port; a missing cell or port
        raises the same :class:`LibraryError`.
        """
        energies = self._energies.get(cell_type)
        if energies is None:
            energies = self._energies[cell_type] = tuple(
                (port, self.energy(cell_type, port)) for port in cell_output_ports(cell_type)
            )
        return energies

    def cell_areas(self) -> Mapping[CellType, float]:
        """Area of every characterized cell type (built once)."""
        if self._areas is None:
            self._areas = {cell_type: spec.area for cell_type, spec in self._cells.items()}
        return self._areas

    # -------------------------------------------------- FA model convenience
    def fa_delay_model(self) -> "FADelayParameters":
        """The (Ds, Dc) pair of the FA cell plus the HA equivalents.

        These parameters drive the allocation-time delay bookkeeping of the
        core algorithms; sign-off timing uses the full per-arc library data.
        """
        ha = CellType.HA if self.has_cell(CellType.HA) else CellType.FA
        return FADelayParameters(
            sum_delay=self.worst_delay(CellType.FA, "s"),
            carry_delay=self.worst_delay(CellType.FA, "co"),
            ha_sum_delay=self.worst_delay(ha, "s"),
            ha_carry_delay=self.worst_delay(ha, "co"),
        )

    def fa_power_model(self) -> "FAPowerParameters":
        """The (Ws, Wc) pair of the FA cell plus the HA equivalents."""
        fa = self.spec(CellType.FA)
        ha = self.spec(CellType.HA) if self.has_cell(CellType.HA) else fa
        return FAPowerParameters(
            sum_energy=fa.output_energy["s"],
            carry_energy=fa.output_energy["co"],
            ha_sum_energy=ha.output_energy["s"],
            ha_carry_energy=ha.output_energy["co"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TechLibrary({self.name!r}, {len(self._cells)} cells)"


@dataclass(frozen=True)
class FADelayParameters:
    """FA/HA input-to-output delays used during allocation (paper's Ds, Dc)."""

    sum_delay: float
    carry_delay: float
    ha_sum_delay: float
    ha_carry_delay: float


@dataclass(frozen=True)
class FAPowerParameters:
    """FA/HA per-transition output energies used during allocation (Ws, Wc)."""

    sum_energy: float
    carry_energy: float
    ha_sum_energy: float
    ha_carry_energy: float
