"""Flow results: the one object of a run, its artifacts and metric record.

:meth:`Flow.run` creates a :class:`FlowResult` from the design, the config
and the library, hands it to every stage and analysis pass to fill in, and
returns it.  Each stage stores its output once, in
:attr:`FlowResult.stage_artifacts` under its own name (an analysis pass
under the pass's name); the named accessors (``compression``,
``opt_report``, ``timing``, ``delay_ns`` ...) read them back from there.
:meth:`FlowResult.to_dict` is the JSON-able record every downstream
consumer reads — the sweep engine, its result cache, run history, the
CSV/JSON artifacts and the paper tables.

Analysis accessors (``timing``, ``power``, ``probabilities``, ``stats`` and
the metrics derived from them) are ``None`` when the corresponding analysis
pass was skipped via ``FlowConfig.analyses``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.bitmatrix.builder import MatrixBuildResult
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel

if TYPE_CHECKING:  # only annotations name them
    from repro.api.config import FlowConfig
    from repro.designs.base import DatapathDesign
    from repro.netlist.core import Bus, Netlist
    from repro.tech.library import TechLibrary


def _artifact(name: str, doc: str) -> property:
    """Read-only accessor of the artifact stored under ``name``."""
    return property(lambda self: self.stage_artifacts.get(name), doc=doc)


@dataclass
class FlowResult:
    """Everything one flow run of one design produced.

    While the flow runs, this is also the state its stages fill in.
    Metrics derived from a skipped analysis pass are ``None`` (the default
    full-analysis flow always populates them).
    """

    design: DatapathDesign
    #: the (validated) configuration of this run
    config: FlowConfig
    #: the library the analyses price against: the configured one, replaced
    #: by the target basis once the map stage has run
    library: TechLibrary
    netlist: Optional[Netlist] = None
    output_bus: Optional[Bus] = None
    fa_count: int = 0
    ha_count: int = 0
    #: cells when the flow finished — a snapshot, so later edits of
    #: ``netlist`` leave the record unchanged
    cell_count: int = 0
    notes: List[str] = field(default_factory=list)
    #: wall time per executed stage (and per analysis, ``analyze:<name>``) —
    #: a derived view of the flow's ``flow.<stage>`` spans (see
    #: :mod:`repro.obs`); a stage that raises still records its partial time
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: each stage's output under the stage's name, each analysis pass's
    #: under the pass's name (plus ``probabilities`` from ``power``)
    stage_artifacts: Dict[str, object] = field(default_factory=dict)
    #: FA models of the configured library; they steer the allocation and
    #: the power analysis, and are not re-derived after mapping
    delay_model: FADelayModel = field(init=False, repr=False)
    power_model: FAPowerModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.delay_model = FADelayModel.from_library(self.library)
        self.power_model = FAPowerModel.from_library(self.library)

    design_name = property(attrgetter("design.name"))
    output_width = property(attrgetter("design.output_width"))
    method = property(attrgetter("config.method"))
    final_adder = property(attrgetter("config.final_adder"))
    opt_level = property(attrgetter("config.opt_level"))
    #: the analysis passes that ran
    analyses = property(attrgetter("config.analyses"))
    library_name = property(attrgetter("library.name"))

    compression = _artifact("reduce", "The reduction's CompressionResult (matrix methods).")
    opt_report = _artifact("optimize", "The OptReport (None at ``-O0``).")
    map_report = _artifact("map", "The MapReport (None for the generic target).")
    timing = _artifact("timing", "The TimingResult of the timing analysis.")
    power = _artifact("power", "The PowerResult of the power analysis.")
    probabilities = _artifact("probabilities", "Signal probabilities (power analysis).")
    stats = _artifact("stats", "The NetlistStats of the stats analysis.")

    @property
    def matrix_build(self) -> Optional[MatrixBuildResult]:
        """The frontend's addend-matrix build (None for ``conventional``)."""
        build = self.stage_artifacts.get("frontend")
        return build if isinstance(build, MatrixBuildResult) else None

    @property
    def max_final_arrival(self) -> float:
        compression = self.compression
        return compression.max_final_arrival if compression is not None else 0.0

    @property
    def pre_opt_stats(self):
        """NetlistStats of the netlist the optimizer started from."""
        report = self.opt_report
        return report.before if report is not None else None

    @property
    def place_report(self):
        """The PlaceReport (None when ``place`` was off)."""
        place = self.stage_artifacts.get("place")
        return place.report if place is not None else None

    @property
    def delay_ns(self) -> Optional[float]:
        timing = self.timing
        return timing.delay if timing is not None else None

    @property
    def area(self) -> Optional[float]:
        stats = self.stats
        return (stats.area or 0.0) if stats is not None else None

    @property
    def total_energy(self) -> Optional[float]:
        power = self.power
        return power.total_energy if power is not None else None

    @property
    def tree_energy(self) -> Optional[float]:
        power = self.power
        return power.tree_energy if power is not None else None

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
            "config": self.config.to_dict(),
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
