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

import contextlib
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs

from repro.api.config import FlowConfig
from repro.api.flow import Flow
from repro.api.result import FlowResult
from repro.designs.base import DatapathDesign
from repro.designs.registry import get_design
from repro.errors import VerificationError
from repro.explore.engine import WorkerFailure, parallel_map
from repro.netlist.serialize import netlist_from_dict, netlist_to_dict
from repro.netlist.validate import validate_netlist
from repro.sim.evaluator import evaluate_vectors
from repro.sim.vectors import exhaustive_vectors, random_vectors, total_input_width

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


def _shared_vectors(design: DatapathDesign) -> List[Dict[str, int]]:
    """One stimulus set both runs of a property are simulated on."""
    if total_input_width(design.signals) <= EXHAUSTIVE_WIDTH_LIMIT:
        return list(exhaustive_vectors(design.signals))
    return random_vectors(design.signals, RANDOM_VECTOR_COUNT, seed=VECTOR_SEED)


def _outputs(result: FlowResult, vectors: List[Dict[str, int]]) -> List[int]:
    """Per-vector output-bus values of one run, modulo the output width."""
    modulo = 1 << result.output_width
    values = evaluate_vectors(result.netlist, vectors).bus_values(result.output_bus)
    return [value % modulo for value in values]


def _first_diff(a: List[int], b: List[int], vectors: List[Dict[str, int]]) -> Dict:
    """The first mismatching vector of two output streams (for reports)."""
    for vector, left, right in zip(vectors, a, b):
        if left != right:
            record = dict(vector)
            record["left"] = left
            record["right"] = right
            return record
    return {}


def _quiet(config: FlowConfig, **overrides: object) -> FlowConfig:
    """The cheapest config computing the same netlist (stats analysis only)."""
    return replace(config, analyses=("stats",), opt_validate=False, **overrides)


@metamorphic_property("opt_levels_equivalent")
def _check_opt_levels(design: DatapathDesign, config: FlowConfig) -> Dict[str, object]:
    base = Flow(_quiet(config, opt_level=0)).run(design)
    optimized = Flow(_quiet(config, opt_level=2)).run(design)
    vectors = _shared_vectors(design)
    left, right = _outputs(base, vectors), _outputs(optimized, vectors)
    if left != right:
        raise VerificationError(
            f"-O2 netlist differs from -O0 netlist; first mismatch: "
            f"{_first_diff(left, right, vectors)}"
        )
    return {
        "vectors": len(vectors),
        "cells_o0": base.cell_count,
        "cells_o2": optimized.cell_count,
    }


@metamorphic_property("fold_square_invariant")
def _check_fold_square(design: DatapathDesign, config: FlowConfig) -> Dict[str, object]:
    if config.method == "conventional":
        raise _Skip("fold_square_products only applies to matrix methods")
    unfolded = Flow(_quiet(config, fold_square_products=False)).run(design)
    folded = Flow(_quiet(config, fold_square_products=True)).run(design)
    vectors = _shared_vectors(design)
    left, right = _outputs(unfolded, vectors), _outputs(folded, vectors)
    if left != right:
        raise VerificationError(
            f"folded squarer differs from unfolded; first mismatch: "
            f"{_first_diff(left, right, vectors)}"
        )
    return {
        "vectors": len(vectors),
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
    vectors = _shared_vectors(design)
    modulo = 1 << result.output_width
    original = _outputs(result, vectors)
    resimulated = [
        value % modulo
        for value in evaluate_vectors(rebuilt, vectors).bus_values(result.output_bus)
    ]
    if original != resimulated:
        raise VerificationError(
            f"rebuilt netlist simulates differently; first mismatch: "
            f"{_first_diff(original, resimulated, vectors)}"
        )
    return {"vectors": len(vectors), "cells": result.cell_count}


@metamorphic_property("map_equivalent")
def _check_map_equivalent(
    design: DatapathDesign, config: FlowConfig
) -> Dict[str, object]:
    from repro.map.targets import GENERIC_TARGET, MAP_OBJECTIVES, TARGET_NAMES, basis_of

    base = Flow(_quiet(config, target_lib=GENERIC_TARGET)).run(design)
    vectors = _shared_vectors(design)
    reference = _outputs(base, vectors)
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
            produced = _outputs(mapped, vectors)
            if produced != reference:
                raise VerificationError(
                    f"{target}/{objective}: mapped netlist differs from the "
                    f"unmapped run; first mismatch: "
                    f"{_first_diff(reference, produced, vectors)}"
                )
            cells_by_target[f"{target}/{objective}"] = mapped.cell_count
    return {"vectors": len(vectors), "cells": cells_by_target}


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
    # corrupted the flow context rather than the wires
    if netlist_to_dict(placed.netlist) != netlist_to_dict(unplaced.netlist):
        raise VerificationError(
            "placement changed the netlist structure (cells/nets differ)"
        )
    vectors = _shared_vectors(design)
    left, right = _outputs(unplaced, vectors), _outputs(placed, vectors)
    if left != right:
        raise VerificationError(
            f"placed netlist differs from unplaced; first mismatch: "
            f"{_first_diff(left, right, vectors)}"
        )
    return {
        "vectors": len(vectors),
        "cells": placed.cell_count,
        "hpwl": report.total_hpwl,
        "cts_skew_ns": report.cts_skew_ns,
    }


#: the properties shipped with this module — guaranteed present in
#: worker processes regardless of the multiprocessing start method
_BUILTIN_PROPERTIES = frozenset(METAMORPHIC_PROPERTIES)


def check_property(name: str, point: "SweepPoint") -> Dict[str, object]:  # noqa: F821
    """Run one metamorphic check; never raises.

    The record mirrors the fuzz-case shape: ``ok`` is True for both passing
    and skipped checks (``skipped`` distinguishes them), ``error`` carries
    the violation or crash message.
    """
    start = time.perf_counter()
    record: Dict[str, object] = {
        "property": name,
        "label": "?",
        "point": None,
        "ok": False,
        "skipped": False,
        "detail": None,
        "error": None,
        "elapsed_s": 0.0,
    }
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
        # identity fields inside the guard: a point whose label or
        # serialization raises still yields a full error record
        record["label"] = point.label()
        record["point"] = point.to_dict()
        with obs.span("verify.property", property=name, case=record["label"]):
            record["detail"] = fn(get_design(point.design), point.config())
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


def _meta_worker(task: Tuple[str, "SweepPoint"]) -> Dict[str, object]:  # noqa: F821
    """Picklable worker body for one (property, point) task."""
    return check_property(task[0], task[1])


def _as_record(result: object, task: Tuple[str, object] = ("?", None)) -> Dict[str, object]:
    """A task's record: a :class:`WorkerFailure` becomes an error record,
    labelled from the task's point when it has a label."""
    if not isinstance(result, WorkerFailure):
        return result
    record: Dict[str, object] = {
        "property": task[0], "label": "?", "point": None, "ok": False,
        "skipped": False, "detail": None, "error": result.error, "elapsed_s": 0.0,
    }
    with contextlib.suppress(Exception):
        record["label"], record["point"] = task[1].label(), task[1].to_dict()
    return record


def run_metamorphic(
    points: Sequence["SweepPoint"],  # noqa: F821
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

    def callback(result: object, done: int, total: int) -> None:
        progress(_as_record(result), done, total)

    results, used_fallback = parallel_map(
        _meta_worker,
        tasks,
        jobs=jobs,
        progress=callback if progress is not None else None,
    )
    return [_as_record(r, t) for r, t in zip(results, tasks)], used_fallback
