"""Final-adder factory: build any of the supported adder architectures by name."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.adders.carry_select import carry_select_adder
from repro.adders.cla import carry_lookahead_adder
from repro.adders.kogge_stone import kogge_stone_adder
from repro.adders.ripple import ripple_carry_adder
from repro.choices import FINAL_ADDER_KINDS
from repro.errors import NetlistError
from repro.netlist.core import Bus, Net, Netlist

_BUILDERS: Dict[str, Callable[..., Bus]] = {
    "ripple": ripple_carry_adder,
    "cla": carry_lookahead_adder,
    "carry_select": carry_select_adder,
    "kogge_stone": kogge_stone_adder,
}

assert tuple(sorted(_BUILDERS)) == FINAL_ADDER_KINDS, (
    "repro.choices.FINAL_ADDER_KINDS is stale"
)


def build_final_adder(
    netlist: Netlist,
    operand_a: Sequence[Optional[Net]],
    operand_b: Sequence[Optional[Net]],
    width: int,
    kind: str = "cla",
    name: str = "sum",
) -> Bus:
    """Build the final carry-propagate adder of the given architecture."""
    try:
        builder = _BUILDERS[kind]
    except KeyError as exc:
        raise NetlistError(
            f"unknown final adder kind {kind!r}; expected one of {FINAL_ADDER_KINDS}"
        ) from exc
    return builder(netlist, operand_a, operand_b, width, name=name)
