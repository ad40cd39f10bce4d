"""The staged flow pipeline: named, registrable steps over a flow context.

A flow run is a sequence of *stages* operating on one mutable
:class:`FlowContext`:

``frontend``
    Lower the design expression — to an addend matrix for the matrix
    methods, or directly to an operator-level netlist for ``conventional``.
``reduce``
    Compress the addend matrix down to two rows with the configured
    allocation method (no-op for ``conventional``).
``final_adder``
    Sum the two remaining rows with the configured carry-propagate adder
    (no-op for ``conventional``, whose frontend already placed one).
``optimize``
    Run the ``repro.opt`` pass pipeline at ``config.opt_level`` (no-op at
    ``-O0``, the paper's protocol).
``map``
    Technology-map the optimized netlist onto ``config.target_lib``
    (no-op for the default ``"generic"`` target).  After this stage the
    context's library *is* the target library, so every analysis below
    prices and times the mapped netlist against the basis it consists of.
``place``
    Run the physical-design backend (:mod:`repro.place`) when
    ``config.place`` is set: anneal a placement on the (auto-sized or
    pinned) fabric, validate it, build the H-tree clock and leave the
    per-net wire-delay map on the context for the timing analysis —
    no-op by default, so the classic zero-wire flow is untouched.
``analyze``
    Run the *analysis passes* selected by ``config.analyses``.  Analyses are
    individually registrable and skippable — ``analyses=("timing",)`` skips
    probability propagation and power estimation entirely, which is a
    measurable per-point speedup in large sweeps (see
    ``benchmarks/bench_api.py``).

Both registries are open: :func:`register_stage` replaces or adds pipeline
steps, :func:`register_analysis` adds analysis passes (which immediately
become valid ``analyses`` values, CLI choices and sweep options, because
:func:`repro.api.config.config_fields` resolves its choices from here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.adders.factory import build_final_adder
from repro.baselines.conventional import conventional_synthesis
from repro.baselines.csa_opt import csa_opt_reduce
from repro.baselines.dadda import dadda_reduce
from repro.baselines.wallace import wallace_reduce
from repro.bitmatrix.builder import MatrixBuildResult, build_addend_matrix
from repro.core.delay_model import FADelayModel
from repro.core.fa_alp import fa_alp
from repro.core.fa_aot import fa_aot
from repro.core.fa_random import fa_random
from repro.core.power_model import FAPowerModel
from repro.core.result import CompressionResult
from repro.designs.base import DatapathDesign
from repro.errors import ConfigError
from repro.map.mapper import map_netlist
from repro.map.targets import GENERIC_TARGET
from repro.netlist.cells import CellType
from repro.netlist.core import Bus, Netlist
from repro.netlist.stats import netlist_stats
from repro.opt.manager import optimize_netlist
from repro.place.runner import place_netlist
from repro.power.probability import propagate_probabilities
from repro.power.switching import estimate_power
from repro.tech.library import TechLibrary
from repro.timing.arrival import compute_arrival_times


@dataclass
class FlowContext:
    """Mutable state threaded through the stages of one flow run."""

    design: DatapathDesign
    config: "FlowConfig"  # noqa: F821 - kept as a forward ref to avoid a cycle
    library: TechLibrary
    delay_model: FADelayModel
    power_model: FAPowerModel
    netlist: Optional[Netlist] = None
    output_bus: Optional[Bus] = None
    matrix_build: Optional[MatrixBuildResult] = None
    compression: Optional[CompressionResult] = None
    fa_count: int = 0
    ha_count: int = 0
    max_final_arrival: float = 0.0
    notes: List[str] = field(default_factory=list)
    opt_report: Optional[object] = None
    pre_opt_stats: Optional[object] = None
    map_report: Optional[object] = None
    place_report: Optional[object] = None
    #: the cell -> site assignment produced by the place stage
    placement: Optional[object] = None
    #: per-net added wire delay (ns, read-only) from the placement; consumed
    #: by the timing analysis so post-place critical paths are wire-aware
    net_delays: Optional[Mapping[str, float]] = None
    #: per-stage and per-analysis artifacts, keyed by stage/analysis name
    artifacts: Dict[str, object] = field(default_factory=dict)
    #: wall time of each executed stage / analysis, in seconds
    stage_times: Dict[str, float] = field(default_factory=dict)


StageFn = Callable[[FlowContext], None]
AnalysisFn = Callable[[FlowContext], object]

#: the default pipeline, in execution order
STAGE_ORDER = (
    "frontend",
    "reduce",
    "final_adder",
    "optimize",
    "map",
    "place",
    "analyze",
)

_STAGES: Dict[str, StageFn] = {}
_ANALYSES: Dict[str, AnalysisFn] = {}  # insertion order = canonical order
_ANALYSIS_REGISTRY_VERSION = 0  # bumped on every (un)registration


def analysis_registry_version() -> int:
    """Monotonic counter of analysis (un)registrations.

    Lets :func:`repro.api.config.config_fields` memoize its resolved field
    specs and still see late registrations.
    """
    return _ANALYSIS_REGISTRY_VERSION


def register_stage(name: str) -> Callable[[StageFn], StageFn]:
    """Decorator: register (or replace) the pipeline stage called ``name``."""

    def deco(fn: StageFn) -> StageFn:
        _STAGES[name] = fn
        return fn

    return deco


def register_analysis(name: str) -> Callable[[AnalysisFn], AnalysisFn]:
    """Decorator: register an analysis pass under ``name``.

    The pass takes the :class:`FlowContext` and returns its artifact (stored
    under ``name`` in ``context.artifacts``).  Registered names immediately
    become valid ``FlowConfig.analyses`` values.

    The registry is process-local.  Parallel sweeps re-validate configs in
    their worker processes, so with a ``spawn``/``forkserver`` start method
    a custom analysis must be registered at import time of a module the
    workers also import (with ``fork``, the default on Linux, workers
    inherit the parent's registry automatically).
    """

    def deco(fn: AnalysisFn) -> AnalysisFn:
        global _ANALYSIS_REGISTRY_VERSION
        _ANALYSES[name] = fn
        _ANALYSIS_REGISTRY_VERSION += 1
        return fn

    return deco


def unregister_analysis(name: str) -> None:
    """Remove a registered analysis pass (mainly for tests/plugins)."""
    global _ANALYSIS_REGISTRY_VERSION
    _ANALYSES.pop(name, None)
    _ANALYSIS_REGISTRY_VERSION += 1


def stage(name: str) -> StageFn:
    """Look up a registered stage by name."""
    try:
        return _STAGES[name]
    except KeyError:
        raise ConfigError(
            f"unknown flow stage {name!r}; expected one of {tuple(_STAGES)}"
        )


def stage_names() -> Tuple[str, ...]:
    """Names of all registered stages."""
    return tuple(_STAGES)


def analysis_names() -> Tuple[str, ...]:
    """Names of all registered analysis passes, in canonical order."""
    return tuple(_ANALYSES)


def _reduce_matrix(context: FlowContext) -> CompressionResult:
    """Dispatch to the configured compressor-tree allocation method."""
    config = context.config
    netlist, matrix = context.matrix_build.netlist, context.matrix_build.matrix
    delay_model, power_model = context.delay_model, context.power_model
    method = config.method
    if method == "fa_aot":
        return fa_aot(netlist, matrix, delay_model, power_model)
    if method == "fa_alp":
        return fa_alp(netlist, matrix, delay_model, power_model)
    if method == "fa_random":
        return fa_random(netlist, matrix, delay_model, power_model, seed=config.seed)
    if method == "wallace":
        return wallace_reduce(netlist, matrix, delay_model, power_model)
    if method == "dadda":
        return dadda_reduce(netlist, matrix, delay_model, power_model)
    if method == "csa_opt":
        return csa_opt_reduce(netlist, matrix, delay_model, power_model)
    if method == "column_isolation":
        return fa_aot(netlist, matrix, delay_model, power_model, column_interaction=False)
    raise ConfigError(f"unknown matrix method {method!r}")


@register_stage("frontend")
def frontend_stage(context: FlowContext) -> None:
    """Lower the design: addend matrix, or full netlist for ``conventional``."""
    config, design = context.config, context.design
    if config.method == "conventional":
        conventional = conventional_synthesis(
            design.expression,
            design.signals,
            design.output_width,
            library=context.library,
            adder_kind=config.final_adder,
            multiplier_style=config.multiplier_style,
            name=f"{design.name}_conventional",
        )
        context.netlist = conventional.netlist
        context.output_bus = conventional.output_bus
        context.fa_count = len(context.netlist.cells_of_type(CellType.FA))
        context.ha_count = len(context.netlist.cells_of_type(CellType.HA))
        context.notes.extend(conventional.notes)
        context.artifacts["frontend"] = conventional
    else:
        build = build_addend_matrix(
            design.expression,
            design.signals,
            design.output_width,
            library=context.library,
            name=f"{design.name}_{config.method}",
            use_csd_coefficients=config.use_csd_coefficients,
            multiplication_style=config.multiplication_style,
            fold_square_products=config.fold_square_products,
        )
        context.matrix_build = build
        context.netlist = build.netlist
        context.notes.extend(build.notes)
        context.artifacts["frontend"] = build


@register_stage("reduce")
def reduce_stage(context: FlowContext) -> None:
    """Compress the addend matrix down to two rows (matrix methods only)."""
    if context.matrix_build is None:
        return
    compression = _reduce_matrix(context)
    context.compression = compression
    context.notes.extend(compression.notes)
    context.fa_count = compression.fa_count
    context.ha_count = compression.ha_count
    context.max_final_arrival = compression.max_final_arrival
    context.artifacts["reduce"] = compression


@register_stage("final_adder")
def final_adder_stage(context: FlowContext) -> None:
    """Sum the two remaining rows with the configured carry-propagate adder."""
    if context.compression is None:
        return
    row_nets = [
        [addend.net if addend is not None else None for addend in row]
        for row in context.compression.rows
    ]
    output_bus = build_final_adder(
        context.netlist,
        row_nets[0],
        row_nets[1],
        context.design.output_width,
        kind=context.config.final_adder,
        name="f",
    )
    context.netlist.set_output_bus(output_bus)
    context.output_bus = output_bus


@register_stage("optimize")
def optimize_stage(context: FlowContext) -> None:
    """Run the ``repro.opt`` pipeline at the configured ``-O`` level."""
    config = context.config
    if config.opt_level <= 0:
        return
    report = optimize_netlist(
        context.netlist,
        opt_level=config.opt_level,
        library=context.library,
        validate=config.opt_validate,
        check_equivalence=True,
    )
    context.opt_report = report
    context.pre_opt_stats = report.before
    # the counts below must describe the netlist the analyses see
    context.fa_count = len(context.netlist.cells_of_type(CellType.FA))
    context.ha_count = len(context.netlist.cells_of_type(CellType.HA))
    context.notes.append(
        f"-O{config.opt_level}: {report.cells_removed} of "
        f"{report.before.num_cells} cells removed in "
        f"{report.iterations} iteration(s)"
    )
    context.artifacts["optimize"] = report


@register_stage("map")
def map_stage(context: FlowContext) -> None:
    """Technology-map the netlist onto the configured target basis."""
    config = context.config
    if config.target_lib == GENERIC_TARGET:
        return
    report = map_netlist(
        context.netlist,
        target=config.target_lib,
        objective=config.map_objective,
        source_library=context.library,
        validate=config.map_validate,
        check_equivalence=True,
    )
    context.map_report = report
    # analyses below must price/time the mapped netlist against the basis
    # it now consists of; the FA-model delay/power parameters are not
    # re-derived (they only steer the already-finished allocation stages)
    context.library = report.library
    context.fa_count = len(context.netlist.cells_of_type(CellType.FA))
    context.ha_count = len(context.netlist.cells_of_type(CellType.HA))
    context.notes.append(
        f"mapped to {config.target_lib} ({config.map_objective}): "
        f"{report.cells_mapped} cells covered, "
        f"{report.before.num_cells} -> {report.after.num_cells} cells"
    )
    context.artifacts["map"] = report


@register_stage("place")
def place_stage(context: FlowContext) -> None:
    """Place the netlist on the fabric and derive the wire-delay map."""
    config = context.config
    if not config.place:
        return
    result = place_netlist(
        context.netlist,
        library=context.library,
        rows=config.fabric_rows,
        cols=config.fabric_cols,
        seed=config.place_seed,
        iters=config.place_iters,
    )
    context.place_report = result.report
    context.placement = result.placement
    context.net_delays = result.net_delays
    obs.counter("place.moves", result.report.moves)
    obs.counter("place.accepted", result.report.accepted)
    context.notes.append(
        f"placed on {result.report.fabric_rows}x{result.report.fabric_cols} "
        f"fabric (seed {config.place_seed}): hpwl "
        f"{result.report.initial_hpwl:.1f} -> {result.report.total_hpwl:.1f}, "
        f"cts skew {result.report.cts_skew_ns or 0.0:.4f} ns"
    )
    context.artifacts["place"] = result


@register_stage("analyze")
def analyze_stage(context: FlowContext) -> None:
    """Run the analysis passes selected by ``config.analyses``."""
    for name in context.config.analyses:
        try:
            fn = _ANALYSES[name]
        except KeyError:
            raise ConfigError(
                f"unknown analysis {name!r}; expected one of {analysis_names()}"
            )
        with obs.span(f"analyze.{name}", analysis=name):
            start = time.perf_counter()
            context.artifacts[name] = fn(context)
            context.stage_times[f"analyze:{name}"] = time.perf_counter() - start


@register_analysis("timing")
def timing_analysis(context: FlowContext):
    """Static timing: per-net arrival times and the design delay.

    After a place stage the context carries per-net wire delays, so the
    reported critical path (and ``FlowResult.delay_ns``) is wire-aware.
    """
    return compute_arrival_times(
        context.netlist, context.library, net_delays=context.net_delays
    )


@register_analysis("power")
def power_analysis(context: FlowContext):
    """Probabilistic power: signal probabilities, then switching energy."""
    probabilities = propagate_probabilities(context.netlist)
    context.artifacts["probabilities"] = probabilities
    return estimate_power(
        context.netlist, context.library, probabilities, context.power_model
    )


@register_analysis("stats")
def stats_analysis(context: FlowContext):
    """Structural statistics: cell counts, area, net counts."""
    return netlist_stats(context.netlist, context.library)
