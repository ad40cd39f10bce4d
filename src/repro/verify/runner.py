"""Orchestration of one verification run: fuzz -> metamorphic -> golden.

:func:`run_verify` is the engine behind ``repro-datapath verify``: it
samples the fuzz cases, fans them (and the metamorphic checks) out over the
exploration engine's worker processes, runs the golden-metric regression set and
assembles everything into a :class:`~repro.verify.report.VerifyReport`.

:func:`run_self_test` is the subsystem's own mutation test: it injects a
deliberately broken rewrite pass through the ``PassManager`` API and demands
that the fuzzer flags every mutated netlist as non-equivalent — a
verification stack that cannot catch a planted bug must fail loudly, not
report green.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

from repro import obs
from repro.obs import get_logger
from repro.opt.base import RewritePass
from repro.verify.fuzz import Domain, run_fuzz, sample_points
from repro.verify.golden import DEFAULT_GOLDEN_PATH, run_golden
from repro.verify.metamorphic import run_metamorphic
from repro.verify.mutation import BrokenAndToOrPass
from repro.verify.report import VerifyReport

#: the smoke preset: small designs (exhaustively checkable), few cases —
#: sized for a CI gate, not a soak run
SMOKE_DESIGNS = ("x2", "x2_plus_x_plus_y", "square_of_sum")
SMOKE_CASES = 6
SMOKE_METAMORPHIC_POINTS = 2

#: default depth of a full run
DEFAULT_CASES = 24
DEFAULT_METAMORPHIC_POINTS = 4

ProgressFn = Callable[[str, Dict[str, object], int, int], None]

log = get_logger("verify")


def _phase_progress(
    progress: Optional[ProgressFn], phase: str
) -> Optional[Callable[[Dict[str, object], int, int], None]]:
    if progress is None:
        return None

    def callback(record: Dict[str, object], done: int, total: int) -> None:
        progress(phase, record, done, total)

    return callback


def run_verify(
    designs: Optional[Sequence[str]] = None,
    n: int = DEFAULT_CASES,
    seed: int = 0,
    jobs: int = 1,
    domain: Optional[Domain] = None,
    metamorphic_points: Optional[int] = None,
    golden_path: Optional[str] = DEFAULT_GOLDEN_PATH,
    bless: bool = False,
    smoke: bool = False,
    mutation: Optional[RewritePass] = None,
    progress: Optional[ProgressFn] = None,
) -> VerifyReport:
    """Run the three verification phases and return the combined report.

    Parameters
    ----------
    designs / n / seed / domain:
        The fuzz-case sample (see :func:`repro.verify.fuzz.sample_points`).
    jobs:
        Worker processes for fuzz cases, metamorphic checks and the golden
        set (``<= 1`` runs serially).
    metamorphic_points:
        How many of the sampled cases also serve as metamorphic base cases
        (every registered property runs against each).
    golden_path / bless:
        Snapshot location and whether to rewrite it instead of comparing;
        ``golden_path=None`` skips the golden phase entirely.
    smoke:
        CI preset: restrict to :data:`SMOKE_DESIGNS` and cap the case
        counts (explicit ``designs`` still win).
    mutation:
        Inject a broken rewrite pass into every fuzz case (mutation
        testing; forces serial fuzzing).
    progress:
        Optional ``(phase, record, done, total)`` callback.
    """
    start = time.perf_counter()
    if smoke:
        designs = tuple(designs) if designs else SMOKE_DESIGNS
        n = min(n, SMOKE_CASES)
        if metamorphic_points is None:
            metamorphic_points = SMOKE_METAMORPHIC_POINTS
    if metamorphic_points is None:
        metamorphic_points = DEFAULT_METAMORPHIC_POINTS

    points = sample_points(n, seed, designs=designs, domain=domain)
    log.info("verify: fuzz phase (%d cases, jobs=%d)", len(points), max(1, jobs))
    with obs.span("verify.fuzz", cases=len(points), jobs=max(1, jobs)):
        fuzz_records, fuzz_fallback = run_fuzz(
            points,
            jobs=jobs,
            mutation=mutation,
            progress=_phase_progress(progress, "fuzz"),
        )

    base_points = points[: max(0, min(metamorphic_points, len(points)))]
    log.info("verify: metamorphic phase (%d base cases)", len(base_points))
    with obs.span("verify.metamorphic", base_cases=len(base_points)):
        meta_records, meta_fallback = run_metamorphic(
            base_points, jobs=jobs, progress=_phase_progress(progress, "metamorphic")
        )

    golden_record = None
    golden_fallback = False
    if golden_path is not None:
        log.info("verify: golden phase (%s)", golden_path)
        with obs.span("verify.golden", path=str(golden_path), bless=bless):
            golden_record = run_golden(golden_path, jobs=jobs, bless=bless)
        golden_fallback = bool(golden_record.get("used_fallback"))

    return VerifyReport(
        seed=seed,
        requested_cases=n,
        fuzz=fuzz_records,
        metamorphic=meta_records,
        golden=golden_record,
        jobs=max(1, jobs),
        used_fallback=fuzz_fallback or meta_fallback or golden_fallback,
        elapsed_s=time.perf_counter() - start,
    )


def run_self_test(
    seed: int = 0,
    n: int = 3,
    designs: Optional[Sequence[str]] = None,
    mutation: Optional[RewritePass] = None,
    domain: Optional[Domain] = None,
) -> Dict[str, object]:
    """Mutation-test the fuzzer: a broken pass must be flagged, case by case.

    Samples ``n`` cases over ``designs`` (default: the small, exhaustively
    checkable smoke designs), injects ``mutation`` (default:
    :class:`BrokenAndToOrPass`) via the ``PassManager`` and requires
    **every** case to come back non-equivalent.  The ``target_lib`` axis is
    pinned to ``"generic"`` regardless of ``domain``: the planted mutations
    rewrite the flow's FA/AND2 primitives, which a technology-mapped
    netlist no longer contains (mapped configurations are exercised by the
    regular fuzz phase and the ``map_equivalent`` metamorphic property).
    Returns a JSON-able record; ``ok`` means the planted bug was caught
    everywhere.  Mutated cases always run serially (the injected pass stays
    in-process).
    """
    from repro.verify.fuzz import default_domain

    mutation = mutation if mutation is not None else BrokenAndToOrPass()
    domain = dict(domain) if domain is not None else default_domain()
    domain["target_lib"] = ("generic",)
    points = sample_points(
        n, seed, designs=designs if designs else SMOKE_DESIGNS, domain=domain
    )
    records, _ = run_fuzz(points, mutation=mutation)
    flagged = [
        record
        for record in records
        if record["equivalence"] is not None
        and not record["equivalence"]["equivalent"]
    ]
    missed = [
        record
        for record in records
        if record["equivalence"] is not None and record["ok"]
    ]
    crashed = [record for record in records if record["equivalence"] is None]
    return {
        "mutation": mutation.name,
        "cases": len(records),
        "flagged": len(flagged),
        "missed": [record["label"] for record in missed],
        "crashed": [record["label"] for record in crashed],
        "ok": bool(records) and not missed and not crashed,
    }
