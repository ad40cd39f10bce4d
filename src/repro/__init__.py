"""repro: fine-grained arithmetic optimization for datapath synthesis.

This package reproduces the system described in

    Junhyung Um, Taewhan Kim, C. L. Liu,
    "A Fine-Grained Arithmetic Optimization Technique for
    High-Performance/Low-Power Data Path Synthesis", DAC 2000.

The central idea is to flatten an arithmetic expression made of additions,
subtractions and multiplications into a single bit-level addend matrix, and to
reduce that matrix with full adders (FAs) and half adders (HAs) whose inputs
are chosen either by signal *arrival time* (algorithm ``FA_AOT``, producing a
delay-optimal carry-save structure) or by signal *switching activity*
(algorithm ``FA_ALP``, reducing power).  The reduced matrix (two rows) is then
summed by a single carry-propagate final adder.

Public entry points
-------------------
``repro.api``
    The canonical public surface: :class:`~repro.api.FlowConfig` (the
    unified, self-describing configuration schema every layer derives
    from), the staged :class:`~repro.api.Flow` pipeline with registrable
    stages and skippable analyses, and :class:`~repro.api.FlowResult`.
``repro.explore``
    Parallel design-space sweeps (grids over the FlowConfig axes), with an
    on-disk result cache and Pareto analysis.
``repro.opt``
    Equivalence-checked netlist optimization (``-O0/1/2``).
``repro.map``
    Technology mapping onto concrete cell bases (``target_lib`` /
    ``map_objective`` config axes, equivalence-checked templates).
``repro.verify``
    Verification: differential config fuzzing, metamorphic properties,
    golden metric snapshots and the mutation self-test (see TESTING.md).
``repro.designs``
    The benchmark designs evaluated in the paper (IIR, Kalman, IDCT, ...).
``repro.core`` / ``repro.baselines``
    The FA-tree allocation algorithms and the Wallace / Dadda / CSA_OPT /
    conventional comparison points.

Quickstart
----------
>>> from repro.api import Flow, FlowConfig
>>> result = Flow(FlowConfig(method="fa_aot")).run("x2_plus_x_plus_y")
>>> result.delay_ns > 0
True
"""

from repro._lazy import lazy_exports
from repro._version import __version__
from repro.errors import (
    ReproError,
    NetlistError,
    ExpressionError,
    AllocationError,
    ConfigError,
    LibraryError,
    SimulationError,
    DesignError,
    VerificationError,
)

__all__ = [
    "__version__",
    "ReproError",
    "NetlistError",
    "ExpressionError",
    "AllocationError",
    "ConfigError",
    "LibraryError",
    "SimulationError",
    "DesignError",
    "VerificationError",
    "Flow",
    "FlowConfig",
    "FlowResult",
]

#: names re-exported lazily (PEP 562) so ``import repro`` stays lightweight
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.api": ("Flow", "FlowConfig", "FlowResult"),
    },
)
