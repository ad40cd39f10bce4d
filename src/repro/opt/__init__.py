"""Netlist optimization subsystem.

A :class:`~repro.opt.manager.PassManager` runs an ordered, fixpoint-iterated
pipeline of rewrite passes over a :class:`~repro.netlist.core.Netlist`:

* :class:`~repro.opt.constant_fold.ConstantFoldPass` — constant folding and
  propagation through every cell type;
* :class:`~repro.opt.strength.StrengthReductionPass` — FA/HA strength
  reduction (an FA with a constant-0 carry-in becomes an HA, ...);
* :class:`~repro.opt.cleanup.CleanupPass` — BUF chain collapsing and
  double-NOT cancellation;
* :class:`~repro.opt.cse.CommonSubexpressionPass` — structural hashing;
* :class:`~repro.opt.dce.DeadCellEliminationPass` — dead cell/net removal
  from the primary outputs.

Every run can be equivalence-checked against the pre-optimization netlist
(bit-parallel, exhaustive for small input widths) and structurally validated
after every pass.  The synthesis flow exposes the pipeline as ``-O`` levels
(``opt_level`` 0/1/2) and ``repro.explore`` sweeps over them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.opt.base": ("RewritePass", "retire_cell"),
        "repro.opt.cleanup": ("CleanupPass",),
        "repro.opt.constant_fold": ("ConstantFoldPass",),
        "repro.opt.cse": ("CommonSubexpressionPass",),
        "repro.opt.dce": ("DeadCellEliminationPass",),
        "repro.opt.manager": (
            "OPT_LEVELS",
            "PassManager",
            "default_pipeline",
            "optimize_netlist",
        ),
        "repro.opt.report": ("OptReport", "PassStat"),
        "repro.opt.strength": ("StrengthReductionPass",),
        "repro.sim.equivalence": ("check_netlists_equivalent",),
    },
)

__all__ = [
    "OPT_LEVELS",
    "CleanupPass",
    "CommonSubexpressionPass",
    "ConstantFoldPass",
    "DeadCellEliminationPass",
    "OptReport",
    "PassManager",
    "PassStat",
    "RewritePass",
    "StrengthReductionPass",
    "check_netlists_equivalent",
    "default_pipeline",
    "optimize_netlist",
    "retire_cell",
]
