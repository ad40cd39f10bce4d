"""Packed stimulus: the one way to drive a netlist with many vectors.

A packed word holds one input's values over a batch of vectors: bit ``k``
is the input's value in vector ``k``.  A netlist's compiled
:class:`~repro.sim.program.SimProgram` replays such words directly
(:meth:`~repro.sim.program.SimProgram.run_packed`), so every multi-vector
simulation — the equivalence checkers and the empirical switching estimate —
builds its words here, in one of three modes:

* **exhaustive** (:func:`exhaustive_words`) — input ``i`` carries bit ``i``
  of the vector index, as exact periodic bit masks;
* **uniform** (:func:`packed_chunks`) — one seeded ``getrandbits(count)``
  word per input per chunk;
* **probability-weighted** (:func:`weighted_words`) — a word whose bits are
  1 with a given probability, combined from uniform words.

:func:`unpack_bus` turns a bus's packed words back into per-vector integers.
Every random mode takes a mandatory ``seed``: there is deliberately no
"fresh entropy" default, so each run is reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.expr.signals import SignalSpec

#: vectors per program replay; a power of two keeps the exhaustive bit
#: patterns chunk-aligned and bounds memory for ~20-bit exhaustive checks
CHUNK_VECTORS = 1 << 13

#: binary digits of a weighted word's probability: ``p`` is rounded to a
#: multiple of ``2**-WEIGHT_BITS`` and needs at most that many uniform words
WEIGHT_BITS = 16


def total_input_width(signals: Mapping[str, SignalSpec]) -> int:
    """Sum of operand widths — used to decide exhaustive vs random checking."""
    return sum(spec.width for spec in signals.values())


def exhaustive_words(names: Sequence[str], start: int, count: int) -> Dict[str, int]:
    """Packed input words for vectors ``start .. start+count-1`` of the
    exhaustive enumeration (input ``names[i]`` carries bit ``i`` of the
    vector index).

    Requires ``count`` to be a power of two and ``start`` a multiple of it,
    so low bits are exact periodic patterns and high bits are constant over
    the chunk.
    """
    mask = (1 << count) - 1
    words: Dict[str, int] = {}
    for i, name in enumerate(names):
        half = 1 << i
        if half >= count:
            words[name] = mask if (start >> i) & 1 else 0
        else:
            period = half << 1
            base = ((1 << half) - 1) << half  # one period: half 0s, half 1s
            repunit = ((1 << count) - 1) // ((1 << period) - 1)
            words[name] = base * repunit
    return words


def packed_chunks(
    names: Sequence[str], exhaustive: bool, vector_count: int, seed: int
) -> Iterator[Tuple[Dict[str, int], int]]:
    """``(words, count)`` per chunk of at most :data:`CHUNK_VECTORS` vectors.

    Every combination of the inputs ``names`` when ``exhaustive``; else
    ``vector_count`` uniform vectors, one ``getrandbits(count)`` per input
    name per chunk, in ``names`` order, from ``random.Random(seed)``.
    """
    total = (1 << len(names)) if exhaustive else vector_count
    rng = random.Random(seed)
    for start in range(0, total, CHUNK_VECTORS):
        count = min(CHUNK_VECTORS, total - start)
        if exhaustive:
            yield exhaustive_words(names, start, count), count
        else:
            yield {name: rng.getrandbits(count) for name in names}, count


def _weighted_word(probability: float, count: int, rng: random.Random) -> int:
    """A ``count``-bit word whose bits are 1 with ``probability``.

    With ``probability`` rounded to ``q / 2**WEIGHT_BITS``, the word starts
    at all zeros and folds in one uniform word per binary digit of ``q``,
    least significant first: OR for a 1 digit, AND for a 0 digit.  Each fold
    maps the bit probability ``r`` to ``(digit + r) / 2``, so after all
    ``WEIGHT_BITS`` digits it is exactly ``q / 2**WEIGHT_BITS``.  Trailing
    zero digits are skipped (AND on zeros stays zero), so ``p = 0.5`` costs
    one uniform word, and ``p = 0`` and ``p = 1`` give constant words
    without drawing.
    """
    q = round(probability * (1 << WEIGHT_BITS))
    if q <= 0:
        return 0
    if q >= 1 << WEIGHT_BITS:
        return (1 << count) - 1
    word = 0
    for digit in range((q & -q).bit_length() - 1, WEIGHT_BITS):
        if (q >> digit) & 1:
            word |= rng.getrandbits(count)
        else:
            word &= rng.getrandbits(count)
    return word


def weighted_words(
    probabilities: Mapping[str, float], count: int, seed: int
) -> Dict[str, int]:
    """One ``count``-bit word per input, its bits 1 with that input's probability.

    Inputs are drawn in ``probabilities`` order from ``random.Random(seed)``;
    see :func:`_weighted_word` for how a word is built.
    """
    rng = random.Random(seed)
    return {
        name: _weighted_word(probability, count, rng)
        for name, probability in probabilities.items()
    }


def unpack_bus(words: Sequence[int], count: int) -> List[int]:
    """Per-vector unsigned values of a bus from its nets' packed words.

    ``words`` lists the words of the bus's nets, least significant bit
    first; each must fit in ``count`` bits.
    """
    results = [0] * count
    nbytes = (count + 7) // 8
    for index, word in enumerate(words):
        # byte-wise extraction keeps this linear in the vector count
        # (bigint shifts per vector would be quadratic)
        data = word.to_bytes(nbytes, "little")
        bit = 1 << index
        for k in range(count):
            if (data[k >> 3] >> (k & 7)) & 1:
                results[k] |= bit
    return results
