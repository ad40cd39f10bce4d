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
from typing import List, Optional, Sequence

from repro import obs
from repro.choices import OPT_LEVEL_HELP, OPT_LEVELS  # noqa: F401  (re-exported)
from repro.errors import OptimizationError, SimulationError
from repro.netlist.core import Netlist
from repro.netlist.stats import netlist_stats
from repro.netlist.validate import validate_netlist
from repro.opt.base import RewritePass
from repro.opt.cleanup import CleanupPass
from repro.opt.constant_fold import ConstantFoldPass
from repro.opt.cse import CommonSubexpressionPass
from repro.opt.dce import DeadCellEliminationPass
from repro.opt.report import OptReport, PassStat
from repro.opt.strength import StrengthReductionPass
from repro.sim.equivalence import (
    EquivalenceReference,
    check_netlists_equivalent,
    equivalence_reference,
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

    Equivalence runs :func:`repro.sim.equivalence.check_netlists_equivalent`
    with its default stimulus.
    """

    def __init__(
        self,
        passes: Sequence[RewritePass],
        max_iterations: int = 8,
        validate: bool = False,
        check_equivalence: bool = True,
        check_each_pass: bool = False,
        library: Optional[object] = None,
        opt_level: int = 2,
    ) -> None:
        if max_iterations < 1:
            raise OptimizationError("max_iterations must be at least 1")
        self.passes = list(passes)
        self.max_iterations = max_iterations
        self.validate = validate
        self.check_equivalence = check_equivalence or check_each_pass
        self.check_each_pass = check_each_pass
        self.library = library
        self.opt_level = opt_level

    def _check(
        self, reference: EquivalenceReference, netlist: Netlist, context: str
    ):
        try:
            report = check_netlists_equivalent(reference, netlist)
        except SimulationError as exc:
            raise OptimizationError(f"equivalence broken {context}: {exc}") from exc
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

        stats: List[PassStat] = []
        iterations = 0
        converged = not self.passes
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            any_rewrites = False
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
                stats.append(
                    PassStat(
                        pass_name=rewrite_pass.name,
                        iteration=iteration,
                        rewrites=rewrites,
                        cells_before=cells_before,
                        cells_after=netlist.num_cells(),
                        elapsed_s=elapsed,
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
        )


def optimize_netlist(
    netlist: Netlist,
    opt_level: int = 2,
    library: Optional[object] = None,
    validate: bool = False,
    check_equivalence: bool = True,
    check_each_pass: bool = False,
    max_iterations: int = 8,
) -> OptReport:
    """Optimize ``netlist`` in place at the given ``-O`` level.

    Returns the :class:`~repro.opt.report.OptReport`; ``opt_level=0`` is a
    no-op that still reports (identical) before/after statistics.
    """
    manager = PassManager(
        default_pipeline(opt_level),
        max_iterations=max_iterations,
        validate=validate,
        check_equivalence=check_equivalence and opt_level > 0,
        check_each_pass=check_each_pass and opt_level > 0,
        library=library,
        opt_level=opt_level,
    )
    return manager.run(netlist)
