"""The :class:`Flow` runner: a configured, staged synthesis pipeline.

``Flow(config).run(design)`` is the canonical way to synthesize: it prepares
the design and the technology library, threads a
:class:`~repro.api.stages.FlowContext` through the registered stages
(``frontend -> reduce -> final_adder -> optimize -> map -> place -> analyze``) and assembles
a :class:`~repro.api.result.FlowResult` with per-stage wall-times and
artifacts.

The CLI, the exploration engine (every sweep point) and the verification
subsystem all run through this class, so all consumers share one code
path.

Observability: every stage emits a ``flow.<stage>`` span into the active
:mod:`repro.obs` tracer (design and method attached as attributes), which
is the primary instrumentation of a run — ``stage_times`` is kept as a
derived compatibility view of the same intervals.  A stage that raises
still records its partial elapsed time (and an ``error`` attribute on its
span) before the exception propagates, so traces of failed runs stay
truthful.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Sequence, Union

from repro import obs
from repro.api.config import FlowConfig
from repro.api.result import FlowResult
from repro.api.stages import STAGE_ORDER, FlowContext, stage
from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.designs.base import DatapathDesign
from repro.designs.registry import get_design, with_random_probabilities
from repro.tech.default_libs import resolve_library
from repro.tech.library import TechLibrary

#: a stage is either a registered name or a callable over the context
StageLike = Union[str, Callable[[FlowContext], None]]

#: fault-injection hook for the observability CI gate: "stage=seconds[,...]"
#: sleeps inside the named stages' spans, so a planted slowdown is visible
#: to the tracer, the history store and the regression sentinel exactly
#: like a real one.  Ignored (with a warning) when malformed.
STAGE_DELAY_ENV = "REPRO_STAGE_DELAY"


def _stage_delays() -> dict:
    """Parse :data:`STAGE_DELAY_ENV` into ``{stage_name: seconds}``."""
    raw = os.environ.get(STAGE_DELAY_ENV)
    if not raw:
        return {}
    delays = {}
    for part in raw.split(","):
        name, _, seconds = part.partition("=")
        try:
            delays[name.strip()] = float(seconds)
        except ValueError:
            obs.get_logger("api.flow").warning(
                "ignoring malformed %s entry %r", STAGE_DELAY_ENV, part
            )
    return delays


class Flow:
    """A staged synthesis pipeline bound to one :class:`FlowConfig`.

    Parameters
    ----------
    config:
        The flow configuration (defaults to ``FlowConfig()``, i.e. the
        paper's FA_AOT protocol with full analysis).
    stages:
        Optional custom pipeline: registered stage names and/or callables
        taking the :class:`FlowContext`.  Defaults to
        :data:`repro.api.stages.STAGE_ORDER`.
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        stages: Optional[Sequence[StageLike]] = None,
    ) -> None:
        self.config = config if config is not None else FlowConfig()
        self.stages = tuple(stages) if stages is not None else STAGE_ORDER

    def run(
        self,
        design: Union[DatapathDesign, str],
        library: Optional[TechLibrary] = None,
    ) -> FlowResult:
        """Run the pipeline on ``design`` (an object or a registry name).

        ``library`` may be passed to reuse an already-built (possibly
        custom) :class:`TechLibrary`; it overrides ``config.library``.
        """
        config = self.config
        if isinstance(design, str):
            design = get_design(design)
        if config.random_probabilities:
            # the seed is passed through verbatim (None included) so the
            # probability draw matches the config's cache identity exactly
            design = with_random_probabilities(design, seed=config.seed)
        if library is None:
            library = resolve_library(config.library)
        context = FlowContext(
            design=design,
            config=config,
            library=library,
            delay_model=FADelayModel.from_library(library),
            power_model=FAPowerModel.from_library(library),
        )
        delays = _stage_delays()
        with obs.span(
            "flow.run", design=design.name, method=config.method
        ) as flow_span:
            for item in self.stages:
                fn = stage(item) if isinstance(item, str) else item
                name = (
                    item if isinstance(item, str) else getattr(item, "__name__", "stage")
                )
                with obs.span(f"flow.{name}", design=design.name, stage=name):
                    start = time.perf_counter()
                    try:
                        if name in delays:
                            time.sleep(delays[name])
                        fn(context)
                    finally:
                        # a raising stage still accounts its partial time;
                        # the analyze stage times its passes individually,
                        # so accumulate instead of clobbering
                        context.stage_times.setdefault(name, 0.0)
                        context.stage_times[name] += time.perf_counter() - start
            result = _build_result(context)
            flow_span.set(cells=result.cell_count)
        return result


def _build_result(context: FlowContext) -> FlowResult:
    """Assemble the :class:`FlowResult` from a fully-executed context."""
    config = context.config
    timing = context.artifacts.get("timing")
    power = context.artifacts.get("power")
    probabilities = context.artifacts.get("probabilities")
    stats = context.artifacts.get("stats")
    if stats is not None:
        cell_count = stats.num_cells
        area = stats.area or 0.0
    else:
        cell_count = context.netlist.num_cells()
        area = None
    return FlowResult(
        design_name=context.design.name,
        method=config.method,
        netlist=context.netlist,
        output_bus=context.output_bus,
        output_width=context.design.output_width,
        final_adder=config.final_adder,
        library_name=context.library.name,
        delay_ns=timing.delay if timing is not None else None,
        area=area,
        total_energy=power.total_energy if power is not None else None,
        tree_energy=power.tree_energy if power is not None else None,
        cell_count=cell_count,
        fa_count=context.fa_count,
        ha_count=context.ha_count,
        max_final_arrival=context.max_final_arrival,
        timing=timing,
        power=power,
        probabilities=probabilities,
        stats=stats,
        compression=context.compression,
        matrix_build=context.matrix_build,
        notes=context.notes,
        opt_level=config.opt_level,
        opt_report=context.opt_report,
        pre_opt_stats=context.pre_opt_stats,
        map_report=context.map_report,
        place_report=context.place_report,
        config=config,
        analyses=tuple(config.analyses),
        stage_times=dict(context.stage_times),
        stage_artifacts=dict(context.artifacts),
    )
