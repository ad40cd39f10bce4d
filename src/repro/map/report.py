"""Mapping reports: what a technology-mapping run did and what it cost.

The report carries both views a mapping consumer needs: the *trade-off*
view (pre/post cell count, area and critical-path delay — "pre" against the
source library the netlist was built with, "post" against the target
library) and the *provenance* view (how many times each template fired,
whether the equivalence check against the unmapped netlist passed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.netlist.stats import NetlistStats
from repro.opt.report import OptReport
from repro.tech.library import TechLibrary
from repro.utils.tables import TextTable


@dataclass
class MapReport:
    """Everything one :func:`repro.map.map_netlist` run produced."""

    target_lib: str
    objective: str
    library: TechLibrary
    template_counts: Dict[str, int] = field(default_factory=dict)
    before: Optional[NetlistStats] = None
    after: Optional[NetlistStats] = None
    delay_before: float = 0.0
    delay_after: float = 0.0
    opt_report: Optional[OptReport] = None
    elapsed_s: float = 0.0

    @property
    def equivalence_ok(self) -> Optional[bool]:
        """Outcome of the against-the-unmapped-netlist check (None = skipped)."""
        if self.opt_report is None or self.opt_report.equivalence is None:
            return None
        return self.opt_report.equivalence.equivalent

    @property
    def cells_mapped(self) -> int:
        """Total template applications (out-of-basis cells covered)."""
        return sum(self.template_counts.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record for artifacts, cache entries and CLI ``--json``.

        Deliberately excludes ``elapsed_s``, as
        :meth:`repro.place.report.PlaceReport.to_dict` does: records must be
        deterministic bytes; wall time lives in spans and benchmarks.
        """
        return {
            "target_lib": self.target_lib,
            "objective": self.objective,
            "cells_mapped": self.cells_mapped,
            "template_counts": dict(sorted(self.template_counts.items())),
            "cells_before": self.before.num_cells if self.before else None,
            "cells_after": self.after.num_cells if self.after else None,
            "area_before": self.before.area if self.before else None,
            "area_after": self.after.area if self.after else None,
            "delay_before": self.delay_before,
            "delay_after": self.delay_after,
            "cell_counts_after": dict(self.after.cell_counts) if self.after else None,
            "equivalence_ok": self.equivalence_ok,
        }

    def render(self) -> str:
        """Human-readable report: template table plus the pre/post deltas."""
        table = TextTable(["template", "applications"])
        for name, count in sorted(self.template_counts.items()):
            table.add_row([name, count])
        lines = [
            table.render(
                title=f"Technology mapping ({self.target_lib}, {self.objective})"
            )
        ]
        if self.before is not None and self.after is not None:
            area_text = ""
            if self.before.area is not None and self.after.area is not None:
                area_text = (
                    f", area {self.before.area:.1f} -> {self.after.area:.1f}"
                )
            lines.append(
                f"cells {self.before.num_cells} -> {self.after.num_cells}"
                f"{area_text}, delay {self.delay_before:.3f} -> "
                f"{self.delay_after:.3f} ns"
            )
        if self.equivalence_ok is not None:
            lines.append(
                f"equivalence vs unmapped: {self.opt_report.equivalence.summary()}"
            )
        return "\n".join(lines)
