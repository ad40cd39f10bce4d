"""JSON / CSV artifacts and text reports for sweep results."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro._version import __version__
from repro.explore.analysis import DEFAULT_OBJECTIVES, pareto_front_by_design
from repro.explore.engine import SweepResult
from repro.explore.spec import POINT_COLUMNS
from repro.utils.tables import TextTable

#: metric columns exported to CSV and shown in the text report, in order
_METRIC_COLUMNS = (
    "delay_ns",
    "area",
    "total_energy",
    "tree_energy",
    "cell_count",
    "fa_count",
    "ha_count",
    "place_hpwl",
    "cts_skew_ns",
)

def sweep_to_json_obj(sweep: SweepResult) -> Dict[str, object]:
    """JSON-able artifact: one record per sweep point plus a run summary.

    Traced sweeps additionally carry the merged ``span_summary`` (the
    shared :func:`repro.obs.aggregate_spans` schema) and monitored sweeps
    (active event bus or ``point_timeout``) the ``events_summary``
    roll-up — stalls, retries, cache hits vs misses, peak RSS, worker
    utilization; plain artifacts are byte-identical to the
    pre-observability format.
    """
    obj = {
        "schema": "repro.explore.sweep",
        "schema_version": 1,
        "tool_version": __version__,
        "summary": {
            "points": len(sweep.outcomes),
            "failed": len(sweep.failures),
            "cache_hits": sweep.cache_hits,
            "cache_misses": sweep.cache_misses,
            "jobs": sweep.jobs,
            "used_fallback": sweep.used_fallback,
            "elapsed_s": round(sweep.elapsed_s, 6),
        },
        "points": [outcome.to_dict() for outcome in sweep.outcomes],
    }
    span_summary = sweep.span_summary()
    if span_summary:
        obj["span_summary"] = span_summary
    if sweep.events_summary:
        obj["events_summary"] = sweep.events_summary
    return obj


def write_json(sweep: SweepResult, path: Union[str, Path]) -> Path:
    """Write the JSON artifact for ``sweep`` to ``path``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sweep_to_json_obj(sweep), handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def write_csv(sweep: SweepResult, path: Union[str, Path]) -> Path:
    """Write one CSV row per sweep point (failed points get an error column)."""
    path = Path(path)
    header = list(POINT_COLUMNS) + list(_METRIC_COLUMNS) + ["cached", "error"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for outcome in sweep.outcomes:
            point = outcome.point.to_dict()
            row: List[object] = [
                "+".join(str(v) for v in value) if isinstance(value, list) else value
                for value in (point[name] for name in POINT_COLUMNS)
            ]
            if outcome.metrics is not None:
                row += [outcome.metrics.get(name) for name in _METRIC_COLUMNS]
            else:
                row += [None] * len(_METRIC_COLUMNS)
            row += [outcome.cached, outcome.error or ""]
            writer.writerow(row)
    return path


def _records_table(records: Sequence, title: str) -> str:
    table = TextTable(
        ["design", "method", "adder", "opt"] + [m for m in _METRIC_COLUMNS],
        float_digits=3,
    )
    for record in records:
        removed = record.get("opt_cells_removed")
        opt_text = f"-O{record.get('opt_level', 0)}"
        if removed:
            opt_text += f" ({-removed:+d} cells)"
        table.add_row(
            [
                record["design_name"],
                record["method"],
                record["final_adder"],
                opt_text,
            ]
            + [record[m] for m in _METRIC_COLUMNS]
        )
    return table.render(title=title)


def sweep_report(
    sweep: SweepResult,
    pareto: bool = False,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> str:
    """Human-readable sweep report: results table, failures, Pareto front."""
    lines: List[str] = []
    records = sweep.records
    if records:
        lines.append(_records_table(records, "Sweep results"))
    if sweep.failures:
        lines.append("")
        lines.append(f"{len(sweep.failures)} point(s) failed:")
        for outcome in sweep.failures:
            lines.append(f"  {outcome.point.label()}: {outcome.error}")
    if pareto and records:
        fronts = pareto_front_by_design(records, objectives)
        front_records = [r for front in fronts.values() for r in front]
        lines.append("")
        lines.append(
            _records_table(
                front_records,
                f"Pareto front per design (minimizing {', '.join(objectives)})",
            )
        )
    lines.append("")
    lines.append(sweep.summary())
    return "\n".join(lines)
