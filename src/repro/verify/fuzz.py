"""Differential config fuzzing over the :class:`FlowConfig` space.

The fuzzer treats the whole configuration schema as its input grammar: the
sampling domain is derived from :func:`repro.api.config.config_fields`, so a
new config knob is automatically fuzzed the moment it is added to the schema
(the same property the CLI flags and sweep axes already have).  Each sampled
``(design, config)`` case runs through the staged :class:`repro.api.Flow`
and is checked **differentially** against the design's word-level reference
model: the synthesized netlist must compute ``expression(inputs) mod 2**W``
(:func:`repro.sim.equivalence.check_equivalence`) and must satisfy the
structural invariants (:func:`repro.netlist.validate.validate_netlist`).

Everything is seeded: the case sampler takes one fuzzer seed, and each
case's stimulus seed is derived from the case's content key, so a failing
case can be replayed bit-exactly from the report alone.

Cases fan out over the exploration engine's dispatcher
(:func:`repro.explore.engine.parallel_map`); :func:`check_point` never
raises — failures are captured in the returned record, mirroring the
per-point error capture of sweeps, and a case whose worker process
crashes gets an error record of the same shape.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import random
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.config import FlowConfig, config_fields
from repro.api.flow import Flow
from repro.api.options import BOOL_AXIS_VALUES, FUZZ_PINNED_FIELDS
from repro.designs.registry import get_design, list_designs
from repro.explore.engine import WorkerFailure, parallel_map
from repro.explore.spec import SweepPoint
from repro.netlist.validate import validate_netlist
from repro.opt.base import RewritePass
from repro.opt.manager import PassManager
from repro.sim.equivalence import check_equivalence

#: config seeds are drawn from this range when the domain leaves them free
SEED_DRAW_RANGE = 1 << 16

#: a fuzz domain: config field name -> candidate values (None = draw an
#: integer from the rng, used for the free-form ``seed`` field)
Domain = Dict[str, Optional[Tuple]]


def default_domain() -> Domain:
    """The full sampling domain, derived from the config schema.

    Fields with declared choices sample uniformly from them, booleans from
    ``(False, True)``, and choice-free integer fields (the flow ``seed``,
    ``place_seed``) are drawn from the rng.  A field may pin its own
    domain through the schema's ``fuzz`` metadata — the fabric dimensions
    fuzz at ``None`` (auto-size) because a random site count is either
    invalid or absurdly large, and ``place_iters`` fuzzes at small move
    budgets to keep cases cheap.  :data:`FUZZ_PINNED_FIELDS` are excluded.
    """
    domain: Domain = {}
    for spec in config_fields():
        if spec.name in FUZZ_PINNED_FIELDS:
            continue
        if spec.fuzz is not None:
            domain[spec.name] = tuple(spec.fuzz)
        elif spec.choices is not None:
            domain[spec.name] = tuple(spec.choices)
        elif spec.kind == "bool":
            domain[spec.name] = (False, True)
        else:
            domain[spec.name] = None
    return domain


def sample_config(rng: random.Random, domain: Optional[Domain] = None) -> FlowConfig:
    """Draw one valid :class:`FlowConfig` from ``domain``.

    Every combination of schema choices is a valid config (the schema has no
    forbidden pairs — don't-care combinations are canonicalized away
    instead), so sampling is a straight per-field draw; construction still
    validates, so a schema regression surfaces here immediately.
    """
    domain = domain if domain is not None else default_domain()
    values: Dict[str, object] = {}
    for name, choices in domain.items():
        if choices is None:
            values[name] = rng.randrange(SEED_DRAW_RANGE)
        else:
            values[name] = choices[rng.randrange(len(choices))]
    values["opt_validate"] = True
    values["map_validate"] = True
    return FlowConfig(**values)


def sample_points(
    n: int,
    seed: int,
    designs: Optional[Sequence[str]] = None,
    domain: Optional[Domain] = None,
) -> List["SweepPoint"]:
    """Sample ``n`` distinct fuzz cases, reproducibly from ``seed``.

    Cases are deduplicated on their canonical cache identity, so no two
    cases describe the same computation; if the (restricted) domain is
    smaller than ``n``, fewer cases are returned.
    """
    rng = random.Random(seed)
    names = tuple(designs) if designs else tuple(list_designs())
    domain = domain if domain is not None else default_domain()
    points: List[SweepPoint] = []
    seen: set = set()
    attempts = 0
    while len(points) < n and attempts < 50 * max(1, n):
        attempts += 1
        design = names[rng.randrange(len(names))]
        point = SweepPoint.from_config(design, sample_config(rng, domain))
        key = point.canonical().key()
        if key in seen:
            continue
        seen.add(key)
        points.append(point)
    return points


def case_seed(point: "SweepPoint") -> int:
    """Deterministic stimulus seed for one case, derived from its identity."""
    digest = hashlib.sha256(point.key().encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def check_point(
    point: "SweepPoint",
    mutation: Optional[RewritePass] = None,
    random_vector_count: int = 64,
    exhaustive_width_limit: int = 14,
) -> Dict[str, object]:
    """Run one fuzz case end to end; never raises.

    The case synthesizes the point through the staged flow, validates the
    netlist structurally and checks it against the design's reference
    expression.  ``mutation`` injects a (deliberately broken) rewrite pass
    through the :class:`~repro.opt.manager.PassManager` *without* the
    manager's own equivalence safety net — this is the subsystem's
    self-test: the differential check must flag the mutated netlist itself.
    """
    start = time.perf_counter()
    record: Dict[str, object] = {
        "label": "?",
        "point": None,
        "stimulus_seed": None,
        "ok": False,
        "validate_warnings": None,
        "equivalence": None,
        "error": None,
        "elapsed_s": 0.0,
    }
    try:
        # the identity fields live inside the guard too: a point whose
        # label/serialization raises must still yield a full error record
        record["label"] = point.label()
        record["point"] = point.to_dict()
        record["stimulus_seed"] = case_seed(point)
        with obs.span("verify.case", case=record["label"]):
            record.update(_check_point_body(point, mutation,
                                            random_vector_count,
                                            exhaustive_width_limit))
    except Exception as exc:  # per-case capture, like sweep points
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["elapsed_s"] = time.perf_counter() - start
    return record


def _check_point_body(
    point: "SweepPoint",
    mutation: Optional[RewritePass],
    random_vector_count: int,
    exhaustive_width_limit: int,
) -> Dict[str, object]:
    """The raising core of one fuzz case: returns only the keys it computed."""
    record: Dict[str, object] = {}
    design = get_design(point.design)
    result = Flow(point.config()).run(design)
    if mutation is not None:
        PassManager(
            [mutation],
            max_iterations=1,
            check_equivalence=False,
            opt_level=0,
        ).run(result.netlist)
    record["validate_warnings"] = len(validate_netlist(result.netlist))
    report = check_equivalence(
        result.netlist,
        result.output_bus,
        design.expression,
        design.signals,
        output_width=result.output_width,
        random_vector_count=random_vector_count,
        exhaustive_width_limit=exhaustive_width_limit,
        seed=case_seed(point),
    )
    record["equivalence"] = {
        "equivalent": report.equivalent,
        "vectors_checked": report.vectors_checked,
        "exhaustive": report.exhaustive,
        "mismatches": report.mismatches[:3],
    }
    record["ok"] = report.equivalent
    if not report.equivalent:
        record["error"] = (
            f"netlist differs from the reference model "
            f"({len(report.mismatches)} mismatching vector(s) sampled)"
        )
    return record


def _as_record(result: object, point: Optional["SweepPoint"] = None) -> Dict[str, object]:
    """A case's record: a :class:`WorkerFailure` becomes an error record,
    labelled from ``point`` when it has a label."""
    if not isinstance(result, WorkerFailure):
        return result
    record: Dict[str, object] = {
        "label": "?", "point": None, "stimulus_seed": None, "ok": False,
        "validate_warnings": None, "equivalence": None,
        "error": result.error, "elapsed_s": 0.0,
    }
    with contextlib.suppress(Exception):
        record["label"], record["point"] = point.label(), point.to_dict()
    return record


def run_fuzz(
    points: Sequence["SweepPoint"],
    jobs: int = 1,
    mutation: Optional[RewritePass] = None,
    progress: Optional[Callable[[Dict[str, object], int, int], None]] = None,
) -> Tuple[List[Dict[str, object]], bool]:
    """Check every fuzz case, fanning out over the sweep dispatcher.

    Returns ``(records, used_fallback)`` in input order.  A ``mutation``
    forces ``jobs=1`` (the injected pass stays in-process, so tests can
    assert on the very object they handed in).
    """

    def callback(result: object, done: int, total: int) -> None:
        progress(_as_record(result), done, total)

    results, used_fallback = parallel_map(
        partial(check_point, mutation=mutation),
        list(points),
        jobs=1 if mutation is not None else jobs,
        progress=callback if progress is not None else None,
    )
    return [_as_record(r, p) for r, p in zip(results, points)], used_fallback


# ---------------------------------------------------------------- CLI glue


def domain_from_args(args: argparse.Namespace) -> Domain:
    """Build the sampling domain from parsed domain-restriction flags."""
    domain = default_domain()
    for name in list(domain):
        value = getattr(args, f"domain_{name}", None)
        if value is None:
            continue
        if isinstance(value, str):
            domain[name] = BOOL_AXIS_VALUES[value]
        else:
            domain[name] = tuple(value)
    return domain
