"""The staged flow pipeline: the named steps that fill one flow result.

A flow run is the fixed sequence :data:`STAGE_ORDER` of *stages*, each a
function over the run's one :class:`~repro.api.result.FlowResult`.  A stage
stores its output once, in ``result.stage_artifacts`` under its own name:

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
    result's library *is* the target library, so every analysis below
    prices and times the mapped netlist against the basis it consists of.
``place``
    Run the physical-design backend (:mod:`repro.place`) when
    ``config.place`` is set: anneal a placement on the (auto-sized or
    pinned) fabric, validate it, build the H-tree clock and derive the
    per-net wire-delay map the timing analysis reads —
    no-op by default, so the classic zero-wire flow is untouched.
``analyze``
    Run the *analysis passes* selected by ``config.analyses``, storing each
    pass's artifact under the pass's name.  Analyses are
    individually registrable and skippable — ``analyses=("timing",)`` skips
    probability propagation and power estimation entirely, which saves
    work on every point of a large sweep.

Each stage imports the layer it runs (``repro.baselines``, ``repro.opt``,
``repro.map``, ``repro.place``) only when it runs, so a flow at ``-O0`` on
the generic target never loads them.

:func:`register_stage` replaces one step of :data:`STAGE_ORDER`; the flow
looks each step up by name on every run, so a replacement (``flowbench``
wraps every step this way while it traces) takes effect at once.
:func:`register_analysis` adds analysis passes, which immediately become
valid ``analyses`` values, CLI choices and sweep options, because
:func:`repro.api.config.config_fields` resolves its choices from the same
registry.  The analysis registry itself lives in :mod:`repro.api.config`,
so resolving those choices never imports this module; the built-in passes
below register themselves on import.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro import obs
from repro.adders.factory import build_final_adder
from repro.api.config import analysis, register_analysis
from repro.api.result import FlowResult
from repro.bitmatrix.builder import build_addend_matrix
from repro.choices import GENERIC_TARGET
from repro.core.fa_alp import fa_alp
from repro.core.fa_aot import fa_aot
from repro.core.fa_random import fa_random
from repro.core.result import CompressionResult
from repro.errors import ConfigError
from repro.netlist.cells import CellType
from repro.netlist.stats import netlist_stats
from repro.power.probability import propagate_probabilities
from repro.power.switching import estimate_power
from repro.timing.arrival import compute_arrival_times

if TYPE_CHECKING:
    from repro.api.config import FlowConfig
    from repro.bitmatrix.matrix import AddendMatrix
    from repro.core.delay_model import FADelayModel
    from repro.core.power_model import FAPowerModel
    from repro.netlist.core import Netlist

StageFn = Callable[[FlowResult], None]

#: the pipeline, in execution order
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


def register_stage(name: str) -> Callable[[StageFn], StageFn]:
    """Decorator: register the step ``name`` of :data:`STAGE_ORDER`.

    Re-registering a name replaces that step for every later run; a name
    outside :data:`STAGE_ORDER` would never run and is rejected.
    """
    if name not in STAGE_ORDER:
        raise ConfigError(f"unknown flow stage {name!r}; expected one of {STAGE_ORDER}")

    def deco(fn: StageFn) -> StageFn:
        _STAGES[name] = fn
        return fn

    return deco


def stage(name: str) -> StageFn:
    """Look up a registered stage by name."""
    try:
        return _STAGES[name]
    except KeyError:
        raise ConfigError(
            f"unknown flow stage {name!r}; expected one of {tuple(_STAGES)}"
        )


def reduce_matrix(
    config: FlowConfig,
    netlist: Optional[Netlist],
    matrix: AddendMatrix,
    delay_model: FADelayModel,
    power_model: FAPowerModel,
) -> CompressionResult:
    """The configured method's tree over ``matrix``, built into ``netlist``
    — or its plan alone, on the column model, when ``netlist`` is ``None``."""
    method = config.method
    if method == "fa_aot":
        return fa_aot(netlist, matrix, delay_model, power_model)
    if method == "fa_alp":
        return fa_alp(netlist, matrix, delay_model, power_model)
    if method == "fa_random":
        return fa_random(netlist, matrix, delay_model, power_model, seed=config.seed)
    if method == "wallace":
        from repro.baselines.wallace import wallace_reduce

        return wallace_reduce(netlist, matrix, delay_model, power_model)
    if method == "dadda":
        from repro.baselines.dadda import dadda_reduce

        return dadda_reduce(netlist, matrix, delay_model, power_model)
    if method == "csa_opt":
        from repro.baselines.csa_opt import csa_opt_reduce

        return csa_opt_reduce(netlist, matrix, delay_model, power_model)
    if method == "column_isolation":
        return fa_aot(netlist, matrix, delay_model, power_model, column_interaction=False)
    raise ConfigError(f"unknown matrix method {method!r}")


@register_stage("frontend")
def frontend_stage(result: FlowResult) -> None:
    """Lower the design: addend matrix, or full netlist for ``conventional``."""
    config, design = result.config, result.design
    if config.method == "conventional":
        from repro.baselines.conventional import conventional_synthesis

        conventional = conventional_synthesis(
            design.expression,
            design.signals,
            design.output_width,
            library=result.library,
            adder_kind=config.final_adder,
            multiplier_style=config.multiplier_style,
            name=f"{design.name}_conventional",
        )
        result.netlist = conventional.netlist
        result.output_bus = conventional.output_bus
        result.fa_count = len(result.netlist.cells_of_type(CellType.FA))
        result.ha_count = len(result.netlist.cells_of_type(CellType.HA))
        result.notes.extend(conventional.notes)
        result.stage_artifacts["frontend"] = conventional
    else:
        build = build_addend_matrix(
            design.expression,
            design.signals,
            design.output_width,
            library=result.library,
            name=f"{design.name}_{config.method}",
            use_csd_coefficients=config.use_csd_coefficients,
            multiplication_style=config.multiplication_style,
            fold_square_products=config.fold_square_products,
        )
        result.netlist = build.netlist
        result.notes.extend(build.notes)
        result.stage_artifacts["frontend"] = build


@register_stage("reduce")
def reduce_stage(result: FlowResult) -> None:
    """Compress the addend matrix down to two rows (matrix methods only)."""
    if result.matrix_build is None:
        return
    build = result.matrix_build
    compression = reduce_matrix(
        result.config, build.netlist, build.matrix, result.delay_model, result.power_model
    )
    result.notes.extend(compression.notes)
    result.fa_count = compression.fa_count
    result.ha_count = compression.ha_count
    result.stage_artifacts["reduce"] = compression


@register_stage("final_adder")
def final_adder_stage(result: FlowResult) -> None:
    """Sum the two remaining rows with the configured carry-propagate adder."""
    if result.compression is None:
        return
    row_nets = [
        [addend.net if addend is not None else None for addend in row]
        for row in result.compression.rows
    ]
    output_bus = build_final_adder(
        result.netlist,
        row_nets[0],
        row_nets[1],
        result.design.output_width,
        kind=result.config.final_adder,
        name="f",
    )
    result.netlist.set_output_bus(output_bus)
    result.output_bus = output_bus


@register_stage("optimize")
def optimize_stage(result: FlowResult) -> None:
    """Run the ``repro.opt`` pipeline at the configured ``-O`` level."""
    config = result.config
    if config.opt_level <= 0:
        return
    from repro.opt.manager import optimize_netlist

    report = optimize_netlist(
        result.netlist,
        opt_level=config.opt_level,
        library=result.library,
        validate=config.opt_validate,
        check_equivalence=True,
    )
    # the counts below must describe the netlist the analyses see
    result.fa_count = len(result.netlist.cells_of_type(CellType.FA))
    result.ha_count = len(result.netlist.cells_of_type(CellType.HA))
    result.notes.append(
        f"-O{config.opt_level}: {report.cells_removed} of "
        f"{report.before.num_cells} cells removed in "
        f"{report.iterations} iteration(s)"
    )
    result.stage_artifacts["optimize"] = report


@register_stage("map")
def map_stage(result: FlowResult) -> None:
    """Technology-map the netlist onto the configured target basis."""
    config = result.config
    if config.target_lib == GENERIC_TARGET:
        return
    from repro.map.mapper import map_netlist

    report = map_netlist(
        result.netlist,
        target=config.target_lib,
        objective=config.map_objective,
        source_library=result.library,
        validate=config.map_validate,
        check_equivalence=True,
    )
    # analyses below must price/time the mapped netlist against the basis
    # it now consists of; the FA-model delay/power parameters are not
    # re-derived (they only steer the already-finished allocation stages)
    result.library = report.library
    result.fa_count = len(result.netlist.cells_of_type(CellType.FA))
    result.ha_count = len(result.netlist.cells_of_type(CellType.HA))
    result.notes.append(
        f"mapped to {config.target_lib} ({config.map_objective}): "
        f"{report.cells_mapped} cells covered, "
        f"{report.before.num_cells} -> {report.after.num_cells} cells"
    )
    result.stage_artifacts["map"] = report


@register_stage("place")
def place_stage(result: FlowResult) -> None:
    """Place the netlist on the fabric and derive the wire-delay map."""
    config = result.config
    if not config.place:
        return
    from repro.place.runner import place_netlist

    placed = place_netlist(
        result.netlist,
        library=result.library,
        rows=config.fabric_rows,
        cols=config.fabric_cols,
        seed=config.place_seed,
        iters=config.place_iters,
    )
    report = placed.report
    obs.counter("place.moves", report.moves)
    obs.counter("place.accepted", report.accepted)
    result.notes.append(
        f"placed on {report.fabric_rows}x{report.fabric_cols} "
        f"fabric (seed {config.place_seed}): hpwl "
        f"{report.initial_hpwl:.1f} -> {report.total_hpwl:.1f}, "
        f"cts skew {report.cts_skew_ns or 0.0:.4f} ns"
    )
    result.stage_artifacts["place"] = placed


@register_stage("analyze")
def analyze_stage(result: FlowResult) -> None:
    """Run the analysis passes selected by ``config.analyses``."""
    for name in result.config.analyses:
        fn = analysis(name)
        with obs.span(f"analyze.{name}", analysis=name):
            start = time.perf_counter()
            result.stage_artifacts[name] = fn(result)
            result.stage_times[f"analyze:{name}"] = time.perf_counter() - start


@register_analysis("timing")
def timing_analysis(result: FlowResult):
    """Static timing: per-net arrival times and the design delay.

    After a place stage the timing uses its per-net wire delays, so the
    reported critical path (and ``FlowResult.delay_ns``) is wire-aware.
    """
    place = result.stage_artifacts.get("place")
    return compute_arrival_times(
        result.netlist,
        result.library,
        net_delays=place.net_delays if place is not None else None,
    )


@register_analysis("power")
def power_analysis(result: FlowResult):
    """Probabilistic power: signal probabilities, then switching energy."""
    probabilities = propagate_probabilities(result.netlist)
    result.stage_artifacts["probabilities"] = probabilities
    return estimate_power(
        result.netlist, result.library, probabilities, result.power_model
    )


@register_analysis("stats")
def stats_analysis(result: FlowResult):
    """Structural statistics: cell counts, area, net counts."""
    return netlist_stats(result.netlist, result.library)
