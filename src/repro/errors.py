"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so callers
can catch a single exception type at flow boundaries while still being able to
distinguish failure modes when they need to.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetlistError(ReproError):
    """Structural problem in a netlist (unknown cell, dangling net, cycle...)."""


class ExpressionError(ReproError):
    """Problem building, parsing or lowering an arithmetic expression."""


class AllocationError(ReproError):
    """Problem during FA-tree / compressor-tree allocation."""


class LibraryError(ReproError):
    """Problem with a technology library (missing cell, missing arc...)."""


class SimulationError(ReproError):
    """Problem during functional simulation or equivalence checking."""


class DesignError(ReproError):
    """Problem with a benchmark design specification."""


class ConfigError(DesignError):
    """Invalid flow configuration: unknown knob, bad value, unknown field.

    Derives from :class:`DesignError` because bad knob values historically
    raised ``DesignError``; callers catching that keep working now that
    validation lives in :class:`repro.api.FlowConfig`.
    """


class PlaceError(DesignError):
    """Problem during physical design: fabric too small, corrupt placement.

    Derives from :class:`DesignError` so flow-boundary callers that catch
    design-level failures (bad knobs, impossible constraints) also catch an
    infeasible or structurally broken placement.
    """


class ExplorationError(ReproError):
    """Problem expanding or executing a design-space exploration sweep."""


class OptimizationError(ReproError):
    """Problem during netlist optimization (broken rewrite, failed equivalence)."""


class VerificationError(ReproError):
    """Problem in the verification subsystem (violated property, golden drift)."""


class MappingError(ReproError):
    """Problem during technology mapping (no template, broken basis, drift)."""
