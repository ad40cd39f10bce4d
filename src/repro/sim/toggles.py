"""Simulation-based (empirical) switching-activity estimation.

This provides the measured counterpart of the probabilistic model in
:mod:`repro.power`: a stream of input vectors drawn according to the per-bit
input probabilities (:func:`repro.sim.stimulus.weighted_words`) is replayed
through the netlist's compiled program in one packed batch, and the ones and
the toggles between consecutive vectors are counted on every net.  Under the
zero-delay model the toggle rate of a net converges to ``2 p (1-p)`` for
temporally independent vectors; the tests use this to validate the
probability propagation on circuits without reconvergent fanout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.errors import SimulationError
from repro.expr.signals import SignalSpec
from repro.netlist.core import Netlist
from repro.sim.program import cached_program
from repro.sim.stimulus import weighted_words


@dataclass
class EmpiricalSwitching:
    """Per-net toggle statistics from vector simulation."""

    vectors_simulated: int
    toggle_rate: Dict[str, float] = field(default_factory=dict)
    one_probability: Dict[str, float] = field(default_factory=dict)

    def rate_of(self, net_name: str) -> float:
        """Fraction of consecutive vector pairs on which the net toggled."""
        return self.toggle_rate.get(net_name, 0.0)

    def probability_of(self, net_name: str) -> float:
        """Empirical probability that the net is 1."""
        return self.one_probability.get(net_name, 0.0)


def empirical_switching(
    netlist: Netlist,
    signals: Mapping[str, SignalSpec],
    vector_count: int = 256,
    seed: int = 7,
) -> EmpiricalSwitching:
    """Simulate random vectors and measure per-net toggle rates.

    Each signal drives its input bus; bit ``i`` is 1 with the signal's
    ``probability_of(i)``.  A signal naming no input bus, a signal whose
    width differs from its bus, or a primary input that no signal covers
    raises :class:`SimulationError`.  ``seed`` drives the vector stream and
    is an ``int`` (never ``None``) so repeated estimates over the same
    netlist are bit-identical.

    Per-net statistics are popcounts on the packed slot words — ones are
    set bits, toggles are set bits of ``word ^ (word >> 1)`` over
    consecutive vector pairs.
    """
    probabilities: Dict[str, float] = {}
    for name, spec in signals.items():
        bus = netlist.input_buses.get(name)
        if bus is None:
            raise SimulationError(f"unknown input {name!r}")
        if bus.width != spec.width:
            raise SimulationError(
                f"signal {name!r} is {spec.width} bits wide, its bus {bus.width}"
            )
        for index, net in enumerate(bus.nets):
            probabilities[net.name] = spec.probability_of(index)

    program = cached_program(netlist)
    mask = (1 << vector_count) - 1
    slots = program.run_packed(weighted_words(probabilities, vector_count, seed), mask)

    count = max(1, vector_count)
    pairs = max(1, vector_count - 1)
    pair_mask = mask >> 1
    toggle_rate: Dict[str, float] = {}
    one_probability: Dict[str, float] = {}
    for name, slot in program.slot_of.items():
        word = slots[slot]
        one_probability[name] = bin(word).count("1") / count
        toggle_rate[name] = bin((word ^ (word >> 1)) & pair_mask).count("1") / pairs

    return EmpiricalSwitching(
        vectors_simulated=vector_count,
        toggle_rate=toggle_rate,
        one_probability=one_probability,
    )
