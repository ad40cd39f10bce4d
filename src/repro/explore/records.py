"""Metric records: the JSON-able summary of one synthesis run.

:class:`PointMetrics` mirrors the metric fields of
:class:`repro.api.result.FlowResult` (as produced by its ``to_dict()``)
without carrying the netlist, so sweep results can be cached, shipped
between processes and fed to the Table 1/2 report builders, which only read
metric attributes.

Metrics of analysis passes that were skipped (``FlowConfig.analyses``) are
``None`` — :meth:`PointMetrics.from_dict` accepts records produced by a
timing-only sweep as well as full-analysis records.

This module deliberately has no imports from the flow layer, so the report
and comparison layers can import it without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.utils.metrics import summary_line


def _opt_float(data: Mapping[str, object], key: str) -> Optional[float]:
    value = data.get(key)
    return float(value) if value is not None else None  # type: ignore[arg-type]


def _opt_int(data: Mapping[str, object], key: str) -> Optional[int]:
    value = data.get(key)
    return int(value) if value is not None else None  # type: ignore[arg-type]


@dataclass
class PointMetrics:
    """Metrics-only view of one synthesis result."""

    design_name: str
    method: str
    final_adder: str
    library_name: str
    output_width: int
    delay_ns: Optional[float]
    area: Optional[float]
    total_energy: Optional[float]
    tree_energy: Optional[float]
    cell_count: int
    fa_count: int
    ha_count: int
    max_final_arrival: float
    opt_level: int = 0
    pre_opt_cell_count: Optional[int] = None
    opt_cells_removed: Optional[int] = None
    place_hpwl: Optional[float] = None
    cts_skew_ns: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PointMetrics":
        """Rebuild from a ``FlowResult.to_dict()`` / cache record.

        Metric keys of skipped analyses may be missing or ``None`` (e.g. a
        timing-only sweep record has no energies); they map to ``None``.
        """
        return cls(
            design_name=str(data["design_name"]),
            method=str(data["method"]),
            final_adder=str(data["final_adder"]),
            library_name=str(data["library_name"]),
            output_width=int(data["output_width"]),
            delay_ns=_opt_float(data, "delay_ns"),
            area=_opt_float(data, "area"),
            total_energy=_opt_float(data, "total_energy"),
            tree_energy=_opt_float(data, "tree_energy"),
            cell_count=int(data["cell_count"]),
            fa_count=int(data["fa_count"]),
            ha_count=int(data["ha_count"]),
            max_final_arrival=float(data["max_final_arrival"]),
            opt_level=int(data.get("opt_level", 0) or 0),
            pre_opt_cell_count=_opt_int(data, "pre_opt_cell_count"),
            opt_cells_removed=_opt_int(data, "opt_cells_removed"),
            place_hpwl=_opt_float(data, "place_hpwl"),
            cts_skew_ns=_opt_float(data, "cts_skew_ns"),
            notes=list(data.get("notes", ())),
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view (inverse of :meth:`from_dict`)."""
        return asdict(self)

    def summary(self) -> str:
        """One-line summary in the same format as ``SynthesisResult.summary``."""
        return summary_line(
            self.design_name,
            self.method,
            self.delay_ns,
            self.area,
            self.tree_energy,
            self.cell_count,
            self.fa_count,
            self.ha_count,
        )
