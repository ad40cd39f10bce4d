"""Kogge-Stone parallel-prefix final adder.

The fastest (logarithmic-depth) final adder provided; used by the final-adder
ablation to show how much of the end-to-end delay is attributable to the
carry-propagate stage versus the compressor tree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.adders.common import and2, normalize_operand, or2, xor2
from repro.netlist.core import Bus, Net, Netlist


def kogge_stone_adder(
    netlist: Netlist,
    operand_a: Sequence[Optional[Net]],
    operand_b: Sequence[Optional[Net]],
    width: int,
    name: str = "sum",
) -> Bus:
    """Sum two LSB-first operands with a Kogge-Stone prefix network."""
    bits_a = normalize_operand(netlist, operand_a, width)
    bits_b = normalize_operand(netlist, operand_b, width)

    propagate = [xor2(netlist, bits_a[i], bits_b[i]) for i in range(width)]
    generate = [and2(netlist, bits_a[i], bits_b[i]) for i in range(width)]

    # Prefix tree: after processing, prefix_g[i] is the group-generate of bits i..0.
    prefix_g: List[Net] = list(generate)
    prefix_p: List[Net] = list(propagate)
    distance = 1
    while distance < width:
        next_g = list(prefix_g)
        next_p = list(prefix_p)
        for index in range(distance, width):
            carry_from_below = and2(netlist, prefix_p[index], prefix_g[index - distance])
            next_g[index] = or2(netlist, prefix_g[index], carry_from_below)
            next_p[index] = and2(netlist, prefix_p[index], prefix_p[index - distance])
        prefix_g = next_g
        prefix_p = next_p
        distance *= 2

    sums: List[Net] = [propagate[0]]
    for index in range(1, width):
        sums.append(xor2(netlist, propagate[index], prefix_g[index - 1]))
    return Bus(name, sums)
