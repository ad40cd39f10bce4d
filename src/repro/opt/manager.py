"""The pass manager: ordered, fixpoint-iterated optimization pipelines.

``PassManager`` runs a pipeline of :class:`~repro.opt.base.RewritePass`
instances over a netlist until no pass reports a rewrite (or the iteration
budget runs out), optionally validating structural invariants after every
pass (debug mode) and checking functional equivalence against a snapshot of
the pre-optimization netlist's function (its compiled sim program, never a
netlist copy) — either once at the end or after every single pass.

``optimize_netlist`` is the front door used by the synthesis flow and the
CLI: it maps an ``-O`` level to the standard pipeline, runs it and returns
the :class:`~repro.opt.report.OptReport`.

Optimization levels
-------------------

* ``-O0`` — no optimization at all (the paper's as-built netlists);
* ``-O1`` — safe cleanups: constant folding, BUF/NOT cleanup, dead-cell
  elimination;
* ``-O2`` — the full pipeline: ``-O1`` plus FA/HA strength reduction and
  structural hashing (CSE).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set

from repro import obs
from repro.errors import OptimizationError
from repro.netlist.core import Netlist
from repro.netlist.stats import netlist_stats
from repro.netlist.validate import validate_netlist
from repro.opt.base import RewritePass
from repro.opt.cleanup import CleanupPass
from repro.opt.constant_fold import ConstantFoldPass
from repro.opt.cse import CommonSubexpressionPass
from repro.opt.dce import DeadCellEliminationPass
from repro.opt.equivalence import (
    EquivalenceReference,
    check_netlists_equivalent,
    equivalence_reference,
)
from repro.opt.report import OptReport, PassStat
from repro.opt.strength import StrengthReductionPass

#: the supported ``-O`` levels
OPT_LEVELS = (0, 1, 2)

#: one-line description of the levels, shared by the CLI flag help and the
#: :class:`repro.api.FlowConfig` field metadata (single source of truth)
OPT_LEVEL_HELP = (
    "netlist optimization level: 0 = as built (paper protocol), "
    "1 = safe cleanups, 2 = full pipeline (always equivalence-checked)"
)


def default_pipeline(opt_level: int) -> List[RewritePass]:
    """The standard pass pipeline for an ``-O`` level."""
    if opt_level not in OPT_LEVELS:
        raise OptimizationError(
            f"unknown opt level {opt_level!r}; expected one of {OPT_LEVELS}"
        )
    if opt_level == 0:
        return []
    passes: List[RewritePass] = [ConstantFoldPass()]
    if opt_level >= 2:
        passes.append(StrengthReductionPass())
    passes.append(CleanupPass())
    if opt_level >= 2:
        passes.append(CommonSubexpressionPass())
    passes.append(DeadCellEliminationPass())
    return passes


class PassManager:
    """Run an ordered pass pipeline over a netlist to a fixpoint.

    Parameters
    ----------
    passes:
        The pipeline, run in order within each fixpoint iteration.
    max_iterations:
        Upper bound on fixpoint iterations (each iteration runs the whole
        pipeline once).
    validate:
        Debug mode: run :func:`repro.netlist.validate.validate_netlist`
        after every pass invocation and fail fast on broken invariants.
    check_equivalence:
        Snapshot the netlist's compiled program before optimizing and verify
        functional equivalence on every primary output afterwards.
    check_each_pass:
        Also check equivalence after *every* pass invocation (slow; implies
        ``check_equivalence``) — pinpoints the exact pass that broke a
        netlist.
    library:
        Optional technology library so the before/after stats carry area.
    timing_library:
        Optional technology library for arrival-time tracking: a full STA
        runs once before the pipeline, then after every fixpoint iteration
        the arrivals are updated *incrementally* from the union of the
        passes' :attr:`~repro.opt.base.RewritePass.touched_nets` — the
        report gains ``delay_before_ns`` / ``delay_after_ns`` at the cost
        of re-propagating only the rewritten cones.
    exhaustive_width_limit / random_vector_count / seed:
        Forwarded to
        :func:`repro.opt.equivalence.check_netlists_equivalent`.
    """

    def __init__(
        self,
        passes: Sequence[RewritePass],
        max_iterations: int = 8,
        validate: bool = False,
        check_equivalence: bool = True,
        check_each_pass: bool = False,
        library: Optional[object] = None,
        exhaustive_width_limit: int = 18,
        random_vector_count: int = 512,
        seed: int = 2000,
        opt_level: int = 2,
        timing_library: Optional[object] = None,
    ) -> None:
        if max_iterations < 1:
            raise OptimizationError("max_iterations must be at least 1")
        self.passes = list(passes)
        self.max_iterations = max_iterations
        self.validate = validate
        self.check_equivalence = check_equivalence or check_each_pass
        self.check_each_pass = check_each_pass
        self.library = library
        self.timing_library = timing_library
        self.exhaustive_width_limit = exhaustive_width_limit
        self.random_vector_count = random_vector_count
        self.seed = seed
        self.opt_level = opt_level

    def _check(
        self, reference: EquivalenceReference, netlist: Netlist, context: str
    ):
        report = check_netlists_equivalent(
            reference,
            netlist,
            exhaustive_width_limit=self.exhaustive_width_limit,
            random_vector_count=self.random_vector_count,
            seed=self.seed,
        )
        if not report.equivalent:
            example = report.mismatches[0] if report.mismatches else {}
            raise OptimizationError(
                f"equivalence broken {context}; first mismatch: {example}"
            )
        return report

    def run(self, netlist: Netlist) -> OptReport:
        """Optimize ``netlist`` in place and return the report."""
        start = time.perf_counter()
        before = netlist_stats(netlist, self.library)
        reference: Optional[EquivalenceReference] = None
        if self.check_equivalence:
            reference = equivalence_reference(netlist)

        timing = None
        if self.timing_library is not None:
            from repro.timing.arrival import compute_arrival_times

            timing = compute_arrival_times(netlist, self.timing_library)
        delay_before = timing.delay if timing is not None else None

        stats: List[PassStat] = []
        iterations = 0
        converged = not self.passes
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            any_rewrites = False
            iteration_touched: Set[str] = set()
            for rewrite_pass in self.passes:
                cells_before = netlist.num_cells()
                with obs.span(
                    f"opt.{rewrite_pass.name}", iteration=iteration
                ) as pass_span:
                    pass_start = time.perf_counter()
                    rewrites = rewrite_pass.run(netlist)
                    elapsed = time.perf_counter() - pass_start
                    pass_span.set(
                        rewrites=rewrites,
                        cells_before=cells_before,
                        cells_after=netlist.num_cells(),
                    )
                obs.counter("opt.rewrites", rewrites)
                obs.counter(
                    "opt.cells_removed", cells_before - netlist.num_cells()
                )
                touched = set(getattr(rewrite_pass, "touched_nets", ()) or ())
                iteration_touched |= touched
                stats.append(
                    PassStat(
                        pass_name=rewrite_pass.name,
                        iteration=iteration,
                        rewrites=rewrites,
                        cells_before=cells_before,
                        cells_after=netlist.num_cells(),
                        elapsed_s=elapsed,
                        touched_nets=len(touched),
                    )
                )
                if self.validate:
                    validate_netlist(netlist)
                if self.check_each_pass and rewrites and reference is not None:
                    self._check(
                        reference,
                        netlist,
                        f"after pass {rewrite_pass.name!r} (iteration {iteration})",
                    )
                any_rewrites = any_rewrites or rewrites > 0
            if timing is not None and any_rewrites:
                from repro.timing.arrival import compute_arrival_times

                timing = compute_arrival_times(
                    netlist,
                    self.timing_library,
                    previous=timing,
                    changed_nets=iteration_touched,
                )
            if not any_rewrites:
                converged = True
                break

        equivalence = None
        if reference is not None:
            with obs.span("opt.equivalence-check", cells=netlist.num_cells()):
                equivalence = self._check(
                    reference, netlist, "after the full pipeline"
                )

        return OptReport(
            opt_level=self.opt_level,
            iterations=iterations,
            converged=converged,
            before=before,
            after=netlist_stats(netlist, self.library),
            passes=stats,
            equivalence=equivalence,
            validated=self.validate,
            elapsed_s=time.perf_counter() - start,
            delay_before_ns=delay_before,
            delay_after_ns=timing.delay if timing is not None else None,
        )


def optimize_netlist(
    netlist: Netlist,
    opt_level: int = 2,
    library: Optional[object] = None,
    validate: bool = False,
    check_equivalence: bool = True,
    check_each_pass: bool = False,
    max_iterations: int = 8,
    exhaustive_width_limit: int = 18,
    random_vector_count: int = 512,
    seed: int = 2000,
    timing_library: Optional[object] = None,
) -> OptReport:
    """Optimize ``netlist`` in place at the given ``-O`` level.

    Returns the :class:`~repro.opt.report.OptReport`; ``opt_level=0`` is a
    no-op that still reports (identical) before/after statistics.  Pass
    ``timing_library`` to track the design delay across the run with
    incremental re-analysis (see :class:`PassManager`).
    """
    manager = PassManager(
        default_pipeline(opt_level),
        max_iterations=max_iterations,
        validate=validate,
        check_equivalence=check_equivalence and opt_level > 0,
        check_each_pass=check_each_pass and opt_level > 0,
        library=library,
        exhaustive_width_limit=exhaustive_width_limit,
        random_vector_count=random_vector_count,
        seed=seed,
        opt_level=opt_level,
        timing_library=timing_library,
    )
    return manager.run(netlist)
