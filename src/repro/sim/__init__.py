"""Bit-true functional simulation and equivalence checking.

One stimulus drives a netlist with many vectors: :mod:`repro.sim.stimulus`
builds packed input words (exhaustive, uniform or probability-weighted) and
the netlist's compiled :class:`SimProgram` replays them.  On that path sit
the one equivalence checker, :mod:`repro.sim.equivalence` — a netlist
against its expression (:func:`check_equivalence`) or against another
netlist (:func:`check_netlists_equivalent`), both returning an
:class:`EquivalenceReport` — and :func:`empirical_switching`.
:func:`evaluate_netlist` evaluates one vector at a time; it is the reference
the packed path is tested against.
"""

from repro.sim.evaluator import bus_value, evaluate_netlist, set_bus_value
from repro.sim.program import SimProgram, cached_program, compile_netlist_program
from repro.sim.equivalence import (
    EquivalenceReport,
    check_equivalence,
    check_netlists_equivalent,
)
from repro.sim.toggles import empirical_switching

__all__ = [
    "bus_value",
    "evaluate_netlist",
    "set_bus_value",
    "SimProgram",
    "cached_program",
    "compile_netlist_program",
    "EquivalenceReport",
    "check_equivalence",
    "check_netlists_equivalent",
    "empirical_switching",
]
