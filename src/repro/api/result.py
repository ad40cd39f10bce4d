"""Flow results: per-stage artifacts, wall-times and the metric summary.

:class:`SynthesisResult` is the classic result shape returned by
``repro.flows.synthesize`` since the first release; :class:`FlowResult`
subsumes it, adding the :class:`~repro.api.config.FlowConfig` that produced
the run, per-stage wall-times and per-stage artifacts.  Every flow run
returns a :class:`FlowResult`; the legacy name keeps working because it is
the base class.

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
from repro.utils.metrics import summary_line

if TYPE_CHECKING:  # only annotations name it; -O0 flows never load repro.opt
    from repro.opt.report import OptReport


@dataclass
class SynthesisResult:
    """Everything produced by one synthesis run of one design.

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

    def summary(self) -> str:
        """One-line result summary."""
        text = summary_line(
            self.design_name,
            self.method,
            self.delay_ns,
            self.area,
            self.tree_energy,
            self.cell_count,
            self.fa_count,
            self.ha_count,
        )
        if self.opt_level:
            text += f"  -O{self.opt_level}"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-able metric summary (no netlist, no analysis internals).

        This is the record shape used by the exploration engine, its result
        cache and the ``--json`` CLI outputs;
        :class:`repro.explore.records.PointMetrics` is its typed mirror.
        Metrics of skipped analyses are ``None``.
        """
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
        }


@dataclass
class FlowResult(SynthesisResult):
    """A :class:`SynthesisResult` plus the config and per-stage telemetry."""

    #: the (validated) configuration that produced this run
    config: Optional["FlowConfig"] = None  # noqa: F821 - forward ref, no cycle
    #: technology-mapping report (None when ``target_lib`` was ``"generic"``)
    map_report: Optional["MapReport"] = None  # noqa: F821 - forward ref
    #: physical-design report (None when ``place`` was off)
    place_report: Optional["PlaceReport"] = None  # noqa: F821 - forward ref
    #: the analysis passes that actually ran
    analyses: Tuple[str, ...] = ()
    #: wall time per executed stage (and per analysis, ``analyze:<name>``) —
    #: a derived view of the flow's ``flow.<stage>`` spans (see
    #: :mod:`repro.obs`); a stage that raises still records its partial time
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: per-stage artifacts (matrix build, compression, opt report, analyses)
    stage_artifacts: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The base metric record plus the full (schema-driven) config.

        New :class:`FlowConfig` knobs automatically appear under ``config``
        in every cached record and JSON artifact — nothing to hand-wire.
        Stage wall-times are deliberately *not* part of the record so that
        records stay deterministic (cache round-trips compare equal).
        """
        out = super().to_dict()
        out["analyses"] = list(self.analyses)
        out["config"] = self.config.to_dict() if self.config is not None else None
        out["map_report"] = (
            self.map_report.to_dict() if self.map_report is not None else None
        )
        out["place_report"] = (
            self.place_report.to_dict() if self.place_report is not None else None
        )
        # flat physical-design headline metrics: CSV columns, QoR records
        # and the history sentinel consume these without digging into the
        # nested report (None when the place stage was skipped)
        place = self.place_report
        out["place_hpwl"] = round(place.total_hpwl, 6) if place is not None else None
        out["cts_skew_ns"] = place.cts_skew_ns if place is not None else None
        return out

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
