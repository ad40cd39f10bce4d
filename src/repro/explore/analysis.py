"""Analysis utilities over sweep metric records.

All functions operate on the plain metric dicts the engine produces
(``FlowResult.to_dict()`` records), so they work equally on cache records,
JSON artifacts read back from disk and live results.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.metrics import improvement_pct

#: the default optimization objectives, all minimized
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("delay_ns", "area", "tree_energy")


def metric_of(record: Mapping[str, object], name: str) -> Optional[float]:
    """Read metric ``name`` from a record as a float.

    Returns ``None`` when the metric value is ``None`` — the analysis pass
    that produces it was skipped (``FlowConfig.analyses``).  An unknown
    metric *name* still raises KeyError, so typos fail loudly instead of
    yielding empty analyses.
    """
    value = record[name]
    return float(value) if value is not None else None


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` dominates ``b`` (minimization)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(
    records: Sequence,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> List:
    """Non-dominated records under simultaneous minimization of ``objectives``.

    Input order is preserved.  Records with identical objective vectors are
    all kept (none dominates the other), so equivalent design points stay
    visible in the front.  Records missing one of the objectives (a skipped
    analysis pass) are incomparable and excluded from the front.
    """
    vectors = [tuple(metric_of(r, m) for m in objectives) for r in records]
    valid = [not any(v is None for v in vector) for vector in vectors]
    front = []
    for i, record in enumerate(records):
        if not valid[i]:
            continue
        if not any(
            _dominates(vectors[j], vectors[i])
            for j in range(len(records))
            if j != i and valid[j]
        ):
            front.append(record)
    return front


def pareto_front_by_design(
    records: Sequence,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> Dict[str, List]:
    """Per-design Pareto fronts (designs compute different functions, so
    dominance across designs is not meaningful)."""
    by_design: Dict[str, List] = {}
    for record in records:
        design = str(record["design_name"])
        by_design.setdefault(design, []).append(record)
    return {
        design: pareto_front(group, objectives)
        for design, group in by_design.items()
    }


def best_per_design(
    records: Sequence,
    metric: str = "delay_ns",
) -> Dict[str, object]:
    """The record minimizing ``metric`` for each design (first wins on ties).

    Records missing the metric (a skipped analysis pass) are ignored.
    """
    best: Dict[str, object] = {}
    for record in records:
        design = str(record["design_name"])
        value = metric_of(record, metric)
        if value is None:
            continue
        current = metric_of(best[design], metric) if design in best else None
        if current is None or value < current:
            best[design] = record
    return best


def improvement_matrix(
    records: Sequence,
    reference_method: str,
    metric: str = "delay_ns",
) -> Dict[str, Dict[str, float]]:
    """Per-design percentage improvement of every method over a reference.

    Returns ``{design: {method: pct}}``.  Designs without a result for
    ``reference_method`` are skipped; when a (design, method) pair has
    several records (e.g. several final adders), the best (minimum) metric
    value represents the pair.  Against a zero reference every entry of the
    design is ``nan`` (see :func:`repro.utils.metrics.improvement_pct`).
    """
    per_pair: Dict[str, Dict[str, float]] = {}
    for record in records:
        design = str(record["design_name"])
        method = str(record["method"])
        value = metric_of(record, metric)
        if value is None:  # metric's analysis pass was skipped
            continue
        methods = per_pair.setdefault(design, {})
        if method not in methods or value < methods[method]:
            methods[method] = value

    matrix: Dict[str, Dict[str, float]] = {}
    for design, methods in per_pair.items():
        if reference_method not in methods:
            continue
        reference = methods[reference_method]
        matrix[design] = {
            method: improvement_pct(reference, value)
            for method, value in methods.items()
        }
    return matrix
