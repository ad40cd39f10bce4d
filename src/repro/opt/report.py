"""Optimization reports: per-pass statistics and before/after summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netlist.stats import NetlistStats
from repro.sim.equivalence import EquivalenceReport
from repro.utils.tables import TextTable


@dataclass
class PassStat:
    """One pass invocation inside the pipeline's fixpoint loop."""

    pass_name: str
    iteration: int
    rewrites: int
    cells_before: int
    cells_after: int
    elapsed_s: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record (one row of the opt report artifact)."""
        return {
            "pass": self.pass_name,
            "iteration": self.iteration,
            "rewrites": self.rewrites,
            "cells_before": self.cells_before,
            "cells_after": self.cells_after,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class OptReport:
    """Everything one :class:`~repro.opt.manager.PassManager` run produced."""

    opt_level: int
    iterations: int
    converged: bool
    before: NetlistStats
    after: NetlistStats
    passes: List[PassStat] = field(default_factory=list)
    equivalence: Optional[EquivalenceReport] = None
    validated: bool = False
    elapsed_s: float = 0.0

    @property
    def cells_removed(self) -> int:
        """Net cell-count reduction over the whole pipeline."""
        return self.before.num_cells - self.after.num_cells

    @property
    def total_rewrites(self) -> int:
        """Sum of rewrites over every pass invocation."""
        return sum(stat.rewrites for stat in self.passes)

    @property
    def area_delta(self) -> Optional[float]:
        """Area reduction (positive = smaller), when area was computed."""
        if self.before.area is None or self.after.area is None:
            return None
        return self.before.area - self.after.area

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary for artifacts and the synthesis metric record."""
        return {
            "opt_level": self.opt_level,
            "iterations": self.iterations,
            "converged": self.converged,
            "cells_before": self.before.num_cells,
            "cells_after": self.after.num_cells,
            "cells_removed": self.cells_removed,
            "area_before": self.before.area,
            "area_after": self.after.area,
            "logic_depth_before": self.before.logic_depth,
            "logic_depth_after": self.after.logic_depth,
            "total_rewrites": self.total_rewrites,
            "validated": self.validated,
            "equivalence": (
                self.equivalence.to_dict() if self.equivalence is not None else None
            ),
            "passes": [stat.to_dict() for stat in self.passes],
            "elapsed_s": round(self.elapsed_s, 6),
        }

    def render(self) -> str:
        """Human-readable report: per-pass table plus before/after deltas."""
        table = TextTable(
            ["iter", "pass", "rewrites", "cells", "time ms"], float_digits=2
        )
        for stat in self.passes:
            table.add_row(
                [
                    stat.iteration,
                    stat.pass_name,
                    stat.rewrites,
                    f"{stat.cells_before} -> {stat.cells_after}",
                    stat.elapsed_s * 1e3,
                ]
            )
        lines = [table.render(title=f"Optimization pipeline (-O{self.opt_level})")]
        area_text = ""
        if self.area_delta is not None:
            area_text = (
                f", area {self.before.area:.1f} -> {self.after.area:.1f}"
                f" ({self.area_delta:+.1f} saved)"
            )
        lines.append(
            f"cells {self.before.num_cells} -> {self.after.num_cells} "
            f"({self.cells_removed} removed), depth {self.before.logic_depth} -> "
            f"{self.after.logic_depth}{area_text}"
        )
        if self.equivalence is not None:
            lines.append(f"equivalence: {self.equivalence.summary()}")
        return "\n".join(lines)
