"""Flow results: per-stage artifacts, wall-times and the metric record.

Every flow run returns a :class:`FlowResult`: the netlist, its metrics, the
:class:`~repro.api.config.FlowConfig` that produced it, per-stage
wall-times and per-stage artifacts.  :meth:`FlowResult.to_dict` is the
JSON-able record every downstream consumer reads — the sweep engine, its
result cache, run history, the CSV/JSON artifacts and the paper tables.

Analysis fields (``timing``, ``power``, ``probabilities``, ``stats`` and
the metrics derived from them) are ``None`` when the corresponding analysis
pass was skipped via ``FlowConfig.analyses``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bitmatrix.builder import MatrixBuildResult
from repro.core.result import CompressionResult
from repro.netlist.core import Bus, Netlist
from repro.netlist.stats import NetlistStats
from repro.power.probability import ProbabilityResult
from repro.power.switching import PowerResult
from repro.timing.arrival import TimingResult

if TYPE_CHECKING:  # only annotations name them; -O0 flows never load these
    from repro.api.config import FlowConfig
    from repro.map.report import MapReport
    from repro.opt.report import OptReport
    from repro.place.report import PlaceReport


@dataclass
class FlowResult:
    """Everything produced by one flow run of one design.

    Metric fields derived from a skipped analysis pass are ``None`` (the
    default full-analysis flow always populates them).
    """

    design_name: str
    method: str
    netlist: Netlist
    output_bus: Bus
    output_width: int
    final_adder: str
    library_name: str
    delay_ns: Optional[float]
    area: Optional[float]
    total_energy: Optional[float]
    tree_energy: Optional[float]
    cell_count: int
    fa_count: int
    ha_count: int
    max_final_arrival: float
    timing: Optional[TimingResult]
    power: Optional[PowerResult]
    probabilities: Optional[ProbabilityResult]
    stats: Optional[NetlistStats]
    compression: Optional[CompressionResult] = None
    matrix_build: Optional[MatrixBuildResult] = None
    notes: List[str] = field(default_factory=list)
    opt_level: int = 0
    opt_report: Optional[OptReport] = None
    pre_opt_stats: Optional[NetlistStats] = None
    #: the (validated) configuration that produced this run
    config: Optional[FlowConfig] = None
    #: technology-mapping report (None when ``target_lib`` was ``"generic"``)
    map_report: Optional[MapReport] = None
    #: physical-design report (None when ``place`` was off)
    place_report: Optional[PlaceReport] = None
    #: the analysis passes that actually ran
    analyses: Tuple[str, ...] = ()
    #: wall time per executed stage (and per analysis, ``analyze:<name>``) —
    #: a derived view of the flow's ``flow.<stage>`` spans (see
    #: :mod:`repro.obs`); a stage that raises still records its partial time
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: per-stage artifacts (matrix build, compression, opt report, analyses)
    stage_artifacts: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line result summary; metrics of skipped analyses read ``n/a``."""

        def fmt(value: Optional[float], spec: str) -> str:
            return format(value, spec) if value is not None else "n/a"

        text = (
            f"{self.design_name:<18} {self.method:<16} "
            f"delay={fmt(self.delay_ns, '6.3f')} ns  "
            f"area={fmt(self.area, '9.1f')}  "
            f"E_tree={fmt(self.tree_energy, '9.3f')}  "
            f"cells={self.cell_count:5d} (FA={self.fa_count}, HA={self.ha_count})"
        )
        if self.opt_level:
            text += f"  -O{self.opt_level}"
        return text

    def to_dict(self) -> Dict[str, object]:
        """The JSON-able metric record (no netlist, no analysis internals).

        This is the record shape used by the exploration engine, its result
        cache, run history, the ``--json`` CLI outputs and the paper
        tables.  Metrics of skipped analyses are ``None``.  Every
        :class:`FlowConfig` knob appears under ``config``, so a new knob
        reaches every cached record and JSON artifact with nothing to
        hand-wire.  Stage wall-times are deliberately *not* part of the
        record so that records stay deterministic (cache round-trips
        compare equal).
        """
        place = self.place_report
        return {
            "design_name": self.design_name,
            "method": self.method,
            "final_adder": self.final_adder,
            "library_name": self.library_name,
            "output_width": self.output_width,
            "delay_ns": self.delay_ns,
            "area": self.area,
            "total_energy": self.total_energy,
            "tree_energy": self.tree_energy,
            "cell_count": self.cell_count,
            "fa_count": self.fa_count,
            "ha_count": self.ha_count,
            "max_final_arrival": self.max_final_arrival,
            "opt_level": self.opt_level,
            "pre_opt_cell_count": (
                self.pre_opt_stats.num_cells if self.pre_opt_stats is not None else None
            ),
            "opt_cells_removed": (
                self.opt_report.cells_removed if self.opt_report is not None else None
            ),
            "notes": list(self.notes),
            "analyses": list(self.analyses),
            "config": self.config.to_dict() if self.config is not None else None,
            "map_report": (
                self.map_report.to_dict() if self.map_report is not None else None
            ),
            "place_report": place.to_dict() if place is not None else None,
            # flat physical-design headline metrics: CSV columns, QoR
            # records and the history sentinel consume these without
            # digging into the nested report (None when place was skipped)
            "place_hpwl": round(place.total_hpwl, 6) if place is not None else None,
            "cts_skew_ns": place.cts_skew_ns if place is not None else None,
        }

    def stage_report(self) -> str:
        """Small text table of per-stage wall times.

        For the full nested picture (per-pass, per-analysis, per-candidate
        spans) run the flow under a tracer — ``--trace`` on the CLI or
        :func:`repro.obs.tracing` around :meth:`Flow.run`.
        """
        lines = ["stage times:"]
        for name, elapsed in self.stage_times.items():
            lines.append(f"  {name:<16} {elapsed * 1e3:8.2f} ms")
        return "\n".join(lines)
