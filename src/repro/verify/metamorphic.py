"""Metamorphic verification: properties that must hold *across* configs.

A differential check ties one netlist to its reference model; a metamorphic
check ties two flow runs to each other.  Each property takes one base fuzz
case (a :class:`~repro.explore.spec.SweepPoint`), derives a pair of related
configurations and asserts the invariant linking their outcomes:

``opt_levels_equivalent``
    The ``-O2`` netlist computes the same function as the ``-O0`` netlist
    (checked on shared stimulus, independently of the optimizer's own
    internal equivalence safety net).
``fold_square_invariant``
    Folding symmetric ``x*x`` partial products never changes the function
    (matrix methods only; skipped for ``conventional``).
``skipped_analyses_stable``
    Skipping analysis passes must not change the synthesized netlist —
    analyses are observers, not transformations.
``serialize_roundtrip``
    ``netlist -> dict -> netlist`` reproduces the structure bit-exactly:
    the rebuilt netlist validates, re-serializes to the identical dict and
    simulates identically.
``map_equivalent``
    Technology mapping never changes the function: for *every* target
    library and *every* mapping objective, the mapped netlist computes the
    same outputs as the unmapped (``target_lib="generic"``) run, and
    contains only cells of the target basis.
``place_preserves_function``
    Placement never changes the function: the ``place=True`` run's netlist
    is structurally identical to the ``place=False`` run's, simulates
    identically on shared stimulus, and its placement validates with zero
    findings.

Properties are registered in :data:`METAMORPHIC_PROPERTIES` (open for
extension, mirroring the flow's analysis registry) and fan out over the
exploration engine's dispatcher as ``(property, point)`` tasks.
:func:`check_property` never raises — violations and crashes are captured
in the returned record.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs

from repro.api.config import FlowConfig
from repro.api.flow import Flow
from repro.api.result import FlowResult
from repro.designs.base import DatapathDesign
from repro.designs.registry import get_design
from repro.errors import VerificationError
from repro.explore.engine import WorkerFailure, parallel_map
from repro.explore.spec import SweepPoint
from repro.netlist.core import Netlist
from repro.netlist.serialize import netlist_from_dict, netlist_to_dict
from repro.netlist.validate import validate_netlist
from repro.sim.equivalence import (
    EquivalenceReference,
    check_netlists_equivalent,
    equivalence_reference,
)

#: stimulus parameters for cross-run output comparison: exhaustive up to
#: this many total input bits, a fixed-seed random sample beyond it
EXHAUSTIVE_WIDTH_LIMIT = 12
RANDOM_VECTOR_COUNT = 128
VECTOR_SEED = 97

#: a property body: (design, base config) -> detail dict, raising
#: :class:`VerificationError` on violation
PropertyFn = Callable[[DatapathDesign, FlowConfig], Dict[str, object]]

METAMORPHIC_PROPERTIES: Dict[str, PropertyFn] = {}


def metamorphic_property(name: str) -> Callable[[PropertyFn], PropertyFn]:
    """Decorator: register a metamorphic property under ``name``."""

    def deco(fn: PropertyFn) -> PropertyFn:
        METAMORPHIC_PROPERTIES[name] = fn
        return fn

    return deco


def property_names() -> Tuple[str, ...]:
    """Names of all registered properties, in registration order."""
    return tuple(METAMORPHIC_PROPERTIES)


class _Skip(Exception):
    """Internal: a property does not apply to this base case."""


def _bus_function(run: FlowResult) -> EquivalenceReference:
    """A run's function, read at its output-bus nets."""
    return equivalence_reference(run.netlist, [net.name for net in run.output_bus.nets])


def _compare_runs(left: FlowResult, right: Union[FlowResult, Netlist], what: str) -> int:
    """Check two runs compute the same output bus; returns the vector count.

    The buses are compared position by position, so a rewrite that renames
    the outputs still compares.  ``right`` may also be a netlist with the
    same net names as ``left``'s.
    """
    report = check_netlists_equivalent(
        _bus_function(left),
        _bus_function(right) if isinstance(right, FlowResult) else right,
        exhaustive_width_limit=EXHAUSTIVE_WIDTH_LIMIT,
        random_vector_count=RANDOM_VECTOR_COUNT,
        seed=VECTOR_SEED,
    )
    if not report.equivalent:
        raise VerificationError(f"{what}; first mismatch: {report.mismatches[0]}")
    return report.vectors_checked


def _quiet(config: FlowConfig, **overrides: object) -> FlowConfig:
    """The cheapest config computing the same netlist (stats analysis only)."""
    return replace(config, analyses=("stats",), opt_validate=False, **overrides)


@metamorphic_property("opt_levels_equivalent")
def _check_opt_levels(design: DatapathDesign, config: FlowConfig) -> Dict[str, object]:
    base = Flow(_quiet(config, opt_level=0)).run(design)
    optimized = Flow(_quiet(config, opt_level=2)).run(design)
    return {
        "vectors": _compare_runs(base, optimized, "-O2 netlist differs from -O0 netlist"),
        "cells_o0": base.cell_count,
        "cells_o2": optimized.cell_count,
    }


@metamorphic_property("fold_square_invariant")
def _check_fold_square(design: DatapathDesign, config: FlowConfig) -> Dict[str, object]:
    if config.method == "conventional":
        raise _Skip("fold_square_products only applies to matrix methods")
    unfolded = Flow(_quiet(config, fold_square_products=False)).run(design)
    folded = Flow(_quiet(config, fold_square_products=True)).run(design)
    return {
        "vectors": _compare_runs(unfolded, folded, "folded squarer differs from unfolded"),
        "cells_unfolded": unfolded.cell_count,
        "cells_folded": folded.cell_count,
    }


@metamorphic_property("skipped_analyses_stable")
def _check_skipped_analyses(
    design: DatapathDesign, config: FlowConfig
) -> Dict[str, object]:
    full = Flow(replace(config, analyses=("timing", "power", "stats"))).run(design)
    minimal = Flow(_quiet(config)).run(design)
    for attribute in ("cell_count", "fa_count", "ha_count"):
        left, right = getattr(full, attribute), getattr(minimal, attribute)
        if left != right:
            raise VerificationError(
                f"skipping analyses changed {attribute}: {left} != {right}"
            )
    if full.netlist.num_cells() != minimal.netlist.num_cells():
        raise VerificationError(
            "skipping analyses changed the netlist cell count: "
            f"{full.netlist.num_cells()} != {minimal.netlist.num_cells()}"
        )
    if full.delay_ns is None or minimal.delay_ns is not None:
        raise VerificationError(
            "analysis selection not honoured: full run must report delay, "
            "stats-only run must not"
        )
    return {"cells": full.cell_count}


@metamorphic_property("serialize_roundtrip")
def _check_serialize_roundtrip(
    design: DatapathDesign, config: FlowConfig
) -> Dict[str, object]:
    result = Flow(_quiet(config)).run(design)
    snapshot = netlist_to_dict(result.netlist)
    rebuilt = netlist_from_dict(snapshot)
    validate_netlist(rebuilt)
    if netlist_to_dict(rebuilt) != snapshot:
        raise VerificationError("serialize -> deserialize -> serialize is not stable")
    vectors = _compare_runs(
        result,
        rebuilt,
        "rebuilt netlist simulates differently",
    )
    return {"vectors": vectors, "cells": result.cell_count}


@metamorphic_property("map_equivalent")
def _check_map_equivalent(
    design: DatapathDesign, config: FlowConfig
) -> Dict[str, object]:
    from repro.map.targets import GENERIC_TARGET, MAP_OBJECTIVES, TARGET_NAMES, basis_of

    base = Flow(_quiet(config, target_lib=GENERIC_TARGET)).run(design)
    vectors = 0
    cells_by_target: Dict[str, int] = {}
    for target in TARGET_NAMES:
        if target == GENERIC_TARGET:
            continue
        for objective in MAP_OBJECTIVES:
            mapped = Flow(
                _quiet(config, target_lib=target, map_objective=objective)
            ).run(design)
            basis = basis_of(mapped.map_report.library)
            stray = sorted(
                {
                    cell.cell_type.value
                    for cell in mapped.netlist.cells.values()
                    if cell.cell_type not in basis
                }
            )
            if stray:
                raise VerificationError(
                    f"{target}/{objective}: mapped netlist contains "
                    f"out-of-basis cell type(s) {stray}"
                )
            vectors = _compare_runs(
                base,
                mapped,
                f"{target}/{objective}: mapped netlist differs from the unmapped run",
            )
            cells_by_target[f"{target}/{objective}"] = mapped.cell_count
    return {"vectors": vectors, "cells": cells_by_target}


@metamorphic_property("place_preserves_function")
def _check_place_preserves_function(
    design: DatapathDesign, config: FlowConfig
) -> Dict[str, object]:
    unplaced = Flow(_quiet(config, place=False)).run(design)
    placed = Flow(_quiet(config, place=True)).run(design)
    report = placed.place_report
    if report is None:
        raise VerificationError("place=True run produced no placement report")
    if report.validation_findings:
        raise VerificationError(
            f"placement validator reported {report.validation_findings} finding(s)"
        )
    # placement must never touch connectivity: the netlists are structurally
    # identical, so simulation equality below can only fail if the placer
    # corrupted the flow result rather than the wires
    if netlist_to_dict(placed.netlist) != netlist_to_dict(unplaced.netlist):
        raise VerificationError(
            "placement changed the netlist structure (cells/nets differ)"
        )
    return {
        "vectors": _compare_runs(unplaced, placed, "placed netlist differs from unplaced"),
        "cells": placed.cell_count,
        "hpwl": report.total_hpwl,
        "cts_skew_ns": report.cts_skew_ns,
    }


#: the properties shipped with this module — guaranteed present in
#: worker processes regardless of the multiprocessing start method
_BUILTIN_PROPERTIES = frozenset(METAMORPHIC_PROPERTIES)


def _property_record(
    name: str, point: SweepPoint, error: Optional[str] = None
) -> Dict[str, object]:
    """A check's record before it ran: failed, with ``error``."""
    return {
        "property": name,
        "label": point.label(),
        "point": point.to_dict(),
        "ok": False,
        "skipped": False,
        "detail": None,
        "error": error,
        "elapsed_s": 0.0,
    }


def check_property(name: str, point: SweepPoint) -> Dict[str, object]:
    """Run one metamorphic check; never raises.

    The record mirrors the fuzz-case shape: ``ok`` is True for both passing
    and skipped checks (``skipped`` distinguishes them), ``error`` carries
    the violation or crash message.
    """
    start = time.perf_counter()
    record = _property_record(name, point)
    try:
        fn = METAMORPHIC_PROPERTIES[name]
    except KeyError:
        record["error"] = (
            f"unknown metamorphic property {name!r}; "
            f"expected one of {property_names()}"
        )
        record["elapsed_s"] = time.perf_counter() - start
        return record
    try:
        with obs.span("verify.property", property=name, case=record["label"]):
            record["detail"] = fn(get_design(point.design), point.config)
        record["ok"] = True
    except _Skip as skip:
        record["ok"] = True
        record["skipped"] = True
        record["detail"] = str(skip)
    except VerificationError as violation:
        record["error"] = str(violation)
    except Exception as exc:  # crash capture, like sweep points
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["elapsed_s"] = time.perf_counter() - start
    return record


def _meta_worker(task: Tuple[str, SweepPoint]) -> Dict[str, object]:
    """Picklable worker body for one (property, point) task."""
    return check_property(task[0], task[1])


def _as_record(result: object, task: Tuple[str, SweepPoint]) -> Dict[str, object]:
    """A task's record: a :class:`WorkerFailure` becomes an error record."""
    if isinstance(result, WorkerFailure):
        return _property_record(task[0], task[1], result.error)
    return result


def run_metamorphic(
    points: Sequence[SweepPoint],
    properties: Optional[Sequence[str]] = None,
    jobs: int = 1,
    progress: Optional[Callable[[Dict[str, object], int, int], None]] = None,
) -> Tuple[List[Dict[str, object]], bool]:
    """Check every property against every base point, fanning out on the
    sweep dispatcher.

    Returns ``(records, used_fallback)`` ordered point-major (all properties
    of the first point, then the second, ...).  Custom (non-built-in)
    properties force serial execution: under the ``spawn``/``forkserver``
    start methods a worker re-imports this module and sees only the
    built-in registry, so a user-registered property would spuriously fail
    as unknown in the worker.
    """
    names = tuple(properties) if properties is not None else property_names()
    tasks = [(name, point) for point in points for name in names]
    if not set(names) <= _BUILTIN_PROPERTIES:
        jobs = 1

    def callback(
        task: Tuple[str, SweepPoint], result: object, done: int, total: int
    ) -> None:
        progress(_as_record(result, task), done, total)

    results, used_fallback = parallel_map(
        _meta_worker,
        tasks,
        jobs=jobs,
        progress=callback if progress is not None else None,
    )
    return [_as_record(r, t) for r, t in zip(results, tasks)], used_fallback
