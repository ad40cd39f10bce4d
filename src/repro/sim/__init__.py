"""Bit-true functional simulation and equivalence checking.

:mod:`repro.sim.equivalence` is the one equivalence checker: a netlist
against its expression (:func:`check_equivalence`) or against another
netlist (:func:`check_netlists_equivalent`), both on one packed stimulus
and both returning an :class:`EquivalenceReport`.
"""

from repro.sim.evaluator import (
    BatchValues,
    bus_value,
    evaluate_netlist,
    evaluate_vectors,
    set_bus_value,
)
from repro.sim.program import SimProgram, cached_program, compile_netlist_program
from repro.sim.vectors import exhaustive_vectors, random_vectors
from repro.sim.equivalence import (
    EquivalenceReport,
    check_equivalence,
    check_netlists_equivalent,
)
from repro.sim.toggles import empirical_switching

__all__ = [
    "BatchValues",
    "bus_value",
    "evaluate_netlist",
    "evaluate_vectors",
    "set_bus_value",
    "SimProgram",
    "cached_program",
    "compile_netlist_program",
    "exhaustive_vectors",
    "random_vectors",
    "EquivalenceReport",
    "check_equivalence",
    "check_netlists_equivalent",
    "empirical_switching",
]
