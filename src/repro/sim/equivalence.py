"""Equivalence checking: a netlist against its expression or another netlist.

Every synthesized netlist must compute ``expression(inputs) mod 2**W`` on its
output bus (:func:`check_equivalence`), and every optimization, mapping or
placement rewrite must leave its outputs bit-for-bit unchanged
(:func:`check_netlists_equivalent`).  Both checkers share one stimulus and
one compare loop: up to a width limit every input combination is tried,
above it a seeded random sample.  The stimulus comes packed from
:func:`repro.sim.stimulus.packed_chunks` — exhaustive patterns are periodic
bit masks, random ones a ``getrandbits`` word per input — and is fed in
power-of-two chunks through the netlist's compiled
:class:`~repro.sim.program.SimProgram`, so no per-vector dicts and no
per-chunk topological re-sorts are ever materialized.  Both return one
:class:`EquivalenceReport`.

The netlist checker's reference side may be an
:class:`EquivalenceReference`: the compiled program and interface names of
a netlist taken *before* it is rewritten in place.  That is how the pass
manager checks its pipelines without copying the netlist — and the snapshot
is the netlist's memoized program, so a check right after an earlier one on
the same state compiles nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.expr.ast import Expression
from repro.expr.signals import SignalSpec
from repro.netlist.core import Bus, Netlist
from repro.sim.program import SimProgram, cached_program
from repro.sim.stimulus import packed_chunks, total_input_width, unpack_bus

#: one chunk's comparison: ``(packed input words, vector count)`` -> the
#: chunk's mismatch records, in vector order
_CompareFn = Callable[[Dict[str, int], int], Iterator[Dict[str, object]]]


@dataclass
class EquivalenceReport:
    """Outcome of an equivalence check."""

    equivalent: bool
    vectors_checked: int
    exhaustive: bool
    mismatches: List[Dict[str, object]] = field(default_factory=list)

    def assert_ok(self) -> None:
        """Raise :class:`SimulationError` when the check failed."""
        if not self.equivalent:
            example = self.mismatches[0] if self.mismatches else {}
            raise SimulationError(f"not equivalent; first mismatch: {example}")

    def summary(self) -> str:
        """One-line verdict, e.g. ``ok (256 exhaustive vectors)``."""
        status = "ok" if self.equivalent else "FAILED"
        mode = "exhaustive" if self.exhaustive else "random"
        return f"{status} ({self.vectors_checked} {mode} vectors)"

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record for reports and artifacts."""
        return {
            "equivalent": self.equivalent,
            "vectors_checked": self.vectors_checked,
            "exhaustive": self.exhaustive,
            "mismatches": list(self.mismatches),
        }


@dataclass(frozen=True)
class EquivalenceReference:
    """A netlist's function, frozen: its compiled program and interface.

    A :class:`SimProgram` holds slot indices and net names only, so it
    keeps describing the netlist it was compiled from after that netlist
    is rewritten.
    """

    program: SimProgram
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


def equivalence_reference(
    netlist: Netlist, outputs: Optional[Sequence[str]] = None
) -> EquivalenceReference:
    """Snapshot ``netlist``'s function for a later equivalence check.

    ``outputs`` names the nets compared, position by position, against the
    other side's; the default is the netlist's primary outputs.
    """
    if outputs is None:
        outputs = [net.name for net in netlist.primary_outputs]
    return EquivalenceReference(
        program=cached_program(netlist),
        inputs=tuple(net.name for net in netlist.primary_inputs),
        outputs=tuple(outputs),
    )


def _compare_chunks(
    names: Sequence[str],
    exhaustive: bool,
    random_vector_count: int,
    seed: int,
    max_mismatches: int,
    compare: _CompareFn,
) -> EquivalenceReport:
    """The one compare loop behind both checkers.

    Feeds packed words for the inputs ``names`` — every combination when
    ``exhaustive``, else ``random_vector_count`` vectors drawn from
    ``seed`` — to ``compare`` chunk by chunk, until the stimulus runs out
    or ``max_mismatches`` records are collected.
    """
    mismatches: List[Dict[str, object]] = []
    checked = 0
    for words, count in packed_chunks(names, exhaustive, random_vector_count, seed):
        checked += count
        room = max_mismatches - len(mismatches)
        mismatches.extend(itertools.islice(compare(words, count), room))
        if len(mismatches) >= max_mismatches:
            break
    return EquivalenceReport(
        equivalent=not mismatches,
        vectors_checked=checked,
        exhaustive=exhaustive,
        mismatches=mismatches,
    )


def _output_slots(program: SimProgram, outputs: Sequence[str]) -> List[int]:
    try:
        return [program.slot_of[name] for name in outputs]
    except KeyError as missing:
        raise SimulationError(f"no simulated value for net {missing}") from None


def check_netlists_equivalent(
    reference: Union[Netlist, EquivalenceReference],
    candidate: Union[Netlist, EquivalenceReference],
    exhaustive_width_limit: int = 18,
    random_vector_count: int = 512,
    seed: int = 2000,
    max_mismatches: int = 5,
) -> EquivalenceReport:
    """Check that ``candidate`` matches ``reference`` on every output.

    Either side is a netlist or an :class:`EquivalenceReference` snapshot
    of one, and outputs are compared position by position.  A netlist
    candidate is read at the reference's output names, so its primary
    outputs must carry exactly those names.  Both sides must have the same
    primary input names.  With at most ``exhaustive_width_limit`` primary
    input bits every combination is checked; otherwise
    ``random_vector_count`` seeded random vectors are used.  A mismatch
    record names the reference's output ``net``, the input bits and the
    ``expected``/``produced`` bit.
    """
    if isinstance(reference, Netlist):
        reference = equivalence_reference(reference)
    if isinstance(candidate, Netlist):
        cand_pos = {net.name for net in candidate.primary_outputs}
        if set(reference.outputs) != cand_pos:
            raise SimulationError(
                f"primary outputs differ: {sorted(set(reference.outputs) ^ cand_pos)}"
            )
        candidate = equivalence_reference(candidate, reference.outputs)
    ref_pis = list(reference.inputs)
    if set(ref_pis) != set(candidate.inputs):
        raise SimulationError(
            f"primary inputs differ: {sorted(set(ref_pis) ^ set(candidate.inputs))}"
        )
    if len(reference.outputs) != len(candidate.outputs):
        raise SimulationError(
            f"output counts differ: {len(reference.outputs)} != "
            f"{len(candidate.outputs)}"
        )

    # both sides are compiled once; every chunk is a straight replay
    ref_program, cand_program = reference.program, candidate.program
    slot_pairs = list(
        zip(
            reference.outputs,
            _output_slots(ref_program, reference.outputs),
            _output_slots(cand_program, candidate.outputs),
        )
    )

    def compare(words: Dict[str, int], count: int) -> Iterator[Dict[str, object]]:
        mask = (1 << count) - 1
        ref_slots = ref_program.run_packed(words, mask)
        cand_slots = cand_program.run_packed(words, mask)
        for net, ref_slot, cand_slot in slot_pairs:
            ref_word = ref_slots[ref_slot]
            difference = ref_word ^ cand_slots[cand_slot]
            while difference:
                index = (difference & -difference).bit_length() - 1
                difference &= difference - 1
                expected = (ref_word >> index) & 1
                yield {
                    "net": net,
                    "inputs": {name: (words[name] >> index) & 1 for name in ref_pis},
                    "expected": expected,
                    "produced": expected ^ 1,
                }

    return _compare_chunks(
        ref_pis,
        len(ref_pis) <= exhaustive_width_limit,
        random_vector_count,
        seed,
        max_mismatches,
        compare,
    )


def check_equivalence(
    netlist: Netlist,
    output_bus: Bus,
    expression: Expression,
    signals: Mapping[str, SignalSpec],
    output_width: Optional[int] = None,
    random_vector_count: int = 64,
    exhaustive_width_limit: int = 14,
    seed: int = 2000,
    max_mismatches: int = 5,
) -> EquivalenceReport:
    """Check that the netlist output equals the expression modulo 2**W.

    ``exhaustive_width_limit`` bounds the total signal width for which every
    combination is tried; larger designs fall back to random vectors.  The
    stimulus drives the nets of each signal's input bus; a mismatch record
    holds the operand values plus ``expected`` and ``produced``.
    """
    modulo = 1 << (output_width if output_width is not None else output_bus.width)
    buses: List[Bus] = []
    for name in signals:
        if name not in netlist.input_buses:
            raise SimulationError(f"unknown input {name!r}")
        buses.append(netlist.input_buses[name])
    program = cached_program(netlist)
    out_slots = _output_slots(program, [net.name for net in output_bus.nets])

    def compare(words: Dict[str, int], count: int) -> Iterator[Dict[str, object]]:
        slots = program.run_packed(words, (1 << count) - 1)
        operands = [
            unpack_bus([words[net.name] for net in bus.nets], count) for bus in buses
        ]
        produced_words = [slots[slot] for slot in out_slots]
        for k, produced_raw in enumerate(unpack_bus(produced_words, count)):
            vector = {name: values[k] for name, values in zip(signals, operands)}
            produced = produced_raw % modulo
            expected = expression.evaluate(vector) % modulo
            if produced != expected:
                yield {**vector, "expected": expected, "produced": produced}

    return _compare_chunks(
        [net.name for bus in buses for net in bus.nets],
        total_input_width(signals) <= exhaustive_width_limit,
        random_vector_count,
        seed,
        max_mismatches,
        compare,
    )
