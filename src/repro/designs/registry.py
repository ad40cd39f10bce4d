"""Design registry: all benchmark designs, addressable by name.

The names live in :mod:`repro.choices` (``DESIGN_NAMES``,
``TABLE1_DESIGN_NAMES``, ``TABLE2_DESIGN_NAMES``), so the CLI lists them
without importing a design; this module re-exports them.  The table tuples
list the designs in the order the paper's tables report them, so ``repro
table1`` / ``table2`` print rows that line up with the published tables.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.choices import (  # noqa: F401  (the table tuples are re-exported)
    DESIGN_NAMES,
    TABLE1_DESIGN_NAMES,
    TABLE2_DESIGN_NAMES,
)
from repro.designs.base import DatapathDesign
from repro.designs.complex_mult import complex_mac_real
from repro.designs.idct import idct_dot_product
from repro.designs.iir import iir_biquad
from repro.designs.kalman import kalman_state_update
from repro.designs.polynomials import (
    mixed_products,
    square_of_sum,
    x2_plus_x_plus_y,
    x_cubed,
    x_squared,
)
from repro.designs.serial_adapter import serial_adapter
from repro.errors import DesignError
from repro.expr.signals import SignalSpec

_FACTORIES: Dict[str, Callable[[], DatapathDesign]] = {
    "x2": x_squared,
    "x3": x_cubed,
    "x2_plus_x_plus_y": x2_plus_x_plus_y,
    "square_of_sum": square_of_sum,
    "mixed_products": mixed_products,
    "iir": iir_biquad,
    "kalman": kalman_state_update,
    "idct": idct_dot_product,
    "complex": complex_mac_real,
    "serial_adapter": serial_adapter,
}

#: every design is registered under exactly the names
#: :data:`repro.choices.DESIGN_NAMES` lists, in its order
assert tuple(_FACTORIES) == DESIGN_NAMES, "repro.choices.DESIGN_NAMES is stale"


def list_designs() -> List[str]:
    """Names of all registered designs."""
    return list(DESIGN_NAMES)


def get_design(name: str) -> DatapathDesign:
    """Instantiate the design registered under ``name``."""
    try:
        factory = _FACTORIES[name]
    except KeyError as exc:
        raise DesignError(
            f"unknown design {name!r}; available designs: {', '.join(sorted(_FACTORIES))}"
        ) from exc
    return factory()


def with_random_probabilities(design: DatapathDesign, seed: int = 2000) -> DatapathDesign:
    """Copy of ``design`` with random per-bit input signal probabilities.

    Table 2 of the paper uses "random signal probabilities for the inputs of
    the designs"; this helper reproduces that protocol deterministically from
    a seed so the power benchmark is repeatable.
    """
    rng = random.Random(f"{design.name}-{seed}")
    signals = {}
    for name, spec in design.signals.items():
        probabilities = [round(rng.uniform(0.05, 0.95), 3) for _ in range(spec.width)]
        signals[name] = SignalSpec(name, spec.width, spec.arrival, probabilities)
    return design.with_signals(signals)
