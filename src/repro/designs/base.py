"""The :class:`DatapathDesign` record describing one benchmark design."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import DesignError
from repro.expr.ast import Expression
from repro.expr.signals import SignalSpec


@dataclass
class DatapathDesign:
    """One benchmark design: an expression plus its input characteristics.

    Attributes
    ----------
    name:
        Registry key (snake_case).
    title:
        Display name matching the paper's tables (e.g. ``"X2 + X + Y"``).
    expression:
        The arithmetic expression to synthesize.
    signals:
        Per-operand :class:`SignalSpec` (width, arrival profile, probability).
    output_width:
        Result width W; the design computes the expression modulo ``2**W``.
    description:
        Short free-form description.
    paper_row:
        Name of the corresponding row in the paper's tables, if any.
    """

    name: str
    title: str
    expression: Expression
    signals: Dict[str, SignalSpec]
    output_width: int
    description: str = ""
    paper_row: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.output_width <= 0:
            raise DesignError(f"design {self.name!r}: output width must be positive")
        missing = [v for v in self.expression.variables() if v not in self.signals]
        if missing:
            raise DesignError(
                f"design {self.name!r}: no SignalSpec for variables {missing}"
            )

    # ------------------------------------------------------------------ views
    def variables(self) -> List[str]:
        """Variable names used by the expression, in first-appearance order."""
        return self.expression.variables()

    def with_signals(self, signals: Dict[str, SignalSpec]) -> "DatapathDesign":
        """Copy of the design with different signal specifications."""
        return replace(self, signals=signals)

    def summary(self) -> str:
        """One-line summary used by the CLI's ``list-designs`` command."""
        widths = ", ".join(
            f"{v}:{self.signals[v].width}b" for v in self.variables()
        )
        return f"{self.name:<22} {self.title:<28} out={self.output_width}b inputs=({widths})"
