"""The :class:`Flow` runner: a configured, staged synthesis pipeline.

``Flow(config).run(design)`` is the canonical way to synthesize: it prepares
the design and the technology library, creates the run's
:class:`~repro.api.result.FlowResult`, lets each step of
:data:`~repro.api.stages.STAGE_ORDER`
(``frontend -> reduce -> final_adder -> optimize -> map -> place -> analyze``)
fill it in, and returns it with per-stage wall-times and artifacts.

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
from typing import Callable, Dict, Optional, Union

from repro import obs
from repro.api.config import FlowConfig
from repro.api.result import FlowResult
from repro.api.stages import STAGE_ORDER, stage
from repro.designs.base import DatapathDesign
from repro.designs.registry import get_design, with_random_probabilities
from repro.tech.default_libs import resolve_library
from repro.tech.library import TechLibrary

#: fault-injection hook for the observability CI gate: "stage=seconds[,...]"
#: sleeps inside the named stages' spans, so a planted slowdown is visible
#: to the tracer, the history store and the regression sentinel exactly
#: like a real one.  Ignored (with a warning) when malformed.
STAGE_DELAY_ENV = "REPRO_STAGE_DELAY"


def env_seconds(env: str, key: Callable = str) -> Dict[object, float]:
    """Parse a ``key=seconds[,...]`` fault-injection hook from ``os.environ``.

    Serves :data:`STAGE_DELAY_ENV` (stage names) and the sweep engine's
    ``REPRO_POINT_HANG`` (point indices, ``key=int``).  A malformed entry is
    skipped with a warning; an unset or empty variable gives ``{}``.
    """
    raw = os.environ.get(env)
    if not raw:
        return {}
    seconds_by_key: Dict[object, float] = {}
    for part in raw.split(","):
        name, _, seconds = part.partition("=")
        try:
            seconds_by_key[key(name.strip())] = float(seconds)
        except ValueError:
            obs.get_logger(__name__).warning(
                "ignoring malformed %s entry %r", env, part
            )
    return seconds_by_key


class Flow:
    """A staged synthesis pipeline bound to one :class:`FlowConfig`.

    ``config`` defaults to ``FlowConfig()``, i.e. the paper's FA_AOT
    protocol with full analysis.
    """

    def __init__(self, config: Optional[FlowConfig] = None) -> None:
        self.config = config if config is not None else FlowConfig()

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
        result = FlowResult(design, config, library)
        delays = env_seconds(STAGE_DELAY_ENV)
        with obs.span(
            "flow.run", design=design.name, method=config.method
        ) as flow_span:
            for name in STAGE_ORDER:
                fn = stage(name)
                with obs.span(f"flow.{name}", design=design.name, stage=name):
                    start = time.perf_counter()
                    try:
                        if name in delays:
                            time.sleep(delays[name])
                        fn(result)
                    finally:
                        # a raising stage still accounts its partial time
                        result.stage_times[name] = time.perf_counter() - start
            result.cell_count = result.netlist.num_cells()
            flow_span.set(cells=result.cell_count)
        return result
