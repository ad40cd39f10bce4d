"""Metric arithmetic shared by the paper tables and sweep analysis."""

from __future__ import annotations

from typing import Optional


def improvement_pct(reference: Optional[float], improved: Optional[float]) -> float:
    """Percentage improvement of ``improved`` over ``reference`` (positive = better).

    A zero or missing reference (a constant-folded output, a skipped
    analysis) or a missing improved value makes the percentage meaningless:
    the result is ``nan``, which report code renders or skips explicitly.
    """
    if not reference or improved is None:
        return float("nan")
    return 100.0 * (reference - improved) / reference
