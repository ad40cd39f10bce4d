"""Reporting on recorded telemetry: flamegraphs and the trend dashboard.

Two consumers of data the rest of ``repro.obs`` produces:

* :func:`collapsed_stacks` / :func:`write_flamegraph` turn a span tree
  (live :class:`~repro.obs.tracer.Tracer` spans or a Chrome trace file
  re-imported with :func:`spans_from_trace_obj`) into Brendan Gregg's
  collapsed-stack format — ``root;child;leaf <self-time-µs>`` lines —
  which ``flamegraph.pl`` and speedscope import directly.

* :func:`render_dashboard` / :func:`write_dashboard` turn a
  :class:`~repro.obs.history.HistoryStore` into ONE self-contained static
  HTML file: per-design QoR trend lines and per-stage latency trend lines
  across runs, drawn as inline SVG with inline CSS — no JavaScript, no
  network fetches, byte-deterministic given the same records.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro._version import __version__
from repro.obs.history import QOR_METRICS, HistoryStore

# ------------------------------------------------------------ flamegraph


def spans_from_trace_obj(obj: Mapping[str, object]) -> List[Dict[str, object]]:
    """Reconstruct span dicts from a Chrome trace object.

    The Chrome export flattens the tree to complete (``"X"``) events; the
    nesting is recovered the way trace viewers draw it — by interval
    containment within each ``(pid, tid)`` lane.  Good enough for
    flamegraphs: a span's parent is the tightest strictly-containing span
    in its lane.
    """
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("not a Chrome trace object: missing 'traceEvents' list")
    spans: List[Dict[str, object]] = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        spans.append(
            {
                "id": len(spans),
                "parent": None,
                "name": str(event.get("name")),
                "ts": float(event.get("ts", 0.0)) / 1e6,
                "dur": float(event.get("dur", 0.0)) / 1e6,
                "pid": int(event.get("pid", 0)),
                "tid": int(event.get("tid", 0)),
                "attrs": dict(event.get("args", {})),
            }
        )
    lanes: Dict[Tuple[int, int], List[Dict[str, object]]] = {}
    for record in spans:
        lanes.setdefault(
            (int(record["pid"]), int(record.get("tid", 0))), []
        ).append(record)
    for lane in lanes.values():
        # widest-first within a lane so a span's parent is already placed
        lane.sort(key=lambda r: (-float(r["dur"]), float(r["ts"])))
        placed: List[Dict[str, object]] = []
        for record in lane:
            dur = float(record["dur"])
            mid = float(record["ts"]) + dur / 2.0
            best = None
            for candidate in placed:
                c_start = float(candidate["ts"])
                c_dur = float(candidate["dur"])
                # epoch stamps and perf-counter durations come from
                # different clocks, so span boundaries jitter by tens of
                # µs; midpoint containment (with the no-shorter guard) is
                # immune to that and exact for properly nested spans
                if c_dur < dur or candidate is record:
                    continue
                if c_start <= mid <= c_start + c_dur:
                    if best is None or c_dur < float(best["dur"]):
                        best = candidate
            if best is not None:
                record["parent"] = best["id"]
            placed.append(record)
    return spans


def collapsed_stacks(spans: Iterable[Dict[str, object]]) -> List[str]:
    """Collapsed-stack lines (``a;b;c <µs>``) from span dicts.

    Each span contributes its *self time* — duration minus the summed
    duration of its direct children, clamped at zero (clock jitter can
    make children sum past the parent) — so the flamegraph's column widths
    add up to real wall time instead of double-counting nesting.  Lines
    are merged by identical stack and sorted, making the output
    deterministic and diff-friendly.
    """
    records = list(spans)
    by_id = {record["id"]: record for record in records}
    child_total: Dict[object, float] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent in by_id:
            child_total[parent] = child_total.get(parent, 0.0) + float(
                record.get("dur", 0.0)
            )
    totals: Dict[str, int] = {}
    for record in records:
        self_s = max(0.0, float(record.get("dur", 0.0)) - child_total.get(record["id"], 0.0))
        names = [str(record["name"])]
        seen = {record["id"]}
        parent = record.get("parent")
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            names.append(str(by_id[parent]["name"]))
            parent = by_id[parent].get("parent")
        stack = ";".join(reversed(names))
        totals[stack] = totals.get(stack, 0) + int(round(self_s * 1e6))
    return [f"{stack} {value}" for stack, value in sorted(totals.items()) if value > 0]


def write_flamegraph(
    spans: Iterable[Dict[str, object]], path: Union[str, Path]
) -> Path:
    """Write the collapsed-stack file for ``spans`` to ``path``."""
    path = Path(path)
    lines = collapsed_stacks(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return path


# ------------------------------------------------------------- dashboard

#: Okabe-Ito palette — colorblind-safe, cycles if there are more series
_PALETTE = (
    "#0072B2", "#D55E00", "#009E73", "#CC79A7",
    "#E69F00", "#56B4E9", "#F0E442", "#000000",
)

_CHART_W = 640
_CHART_H = 180
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 52, 10, 8, 22

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 60em;
       color: #1a1a1a; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 2em; }
h3 { font-size: 1em; margin-bottom: 0.2em; }
.meta { color: #555; font-size: 0.85em; }
.chart { margin-bottom: 1.2em; }
svg { background: #fafafa; border: 1px solid #ddd; }
.legend { font-size: 0.8em; }
.legend span { margin-right: 1.2em; white-space: nowrap; }
.swatch { display: inline-block; width: 0.8em; height: 0.8em;
          margin-right: 0.3em; vertical-align: -0.05em; }
table { border-collapse: collapse; font-size: 0.85em; }
td, th { border: 1px solid #ccc; padding: 0.2em 0.6em; text-align: left; }
"""


def _fmt(value: float) -> str:
    """Compact axis-label formatting (no trailing float noise)."""
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _svg_chart(series: "List[Tuple[str, List[Optional[float]]]]", runs: int) -> str:
    """One inline-SVG line chart: run index on x, value on y.

    ``series`` maps a label to one optional value per run (``None`` =
    that run has no sample; the polyline skips the gap).
    """
    values = [v for _label, vs in series for v in vs if v is not None]
    if not values or runs < 1:
        return "<p class='meta'>no data</p>"
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    span_x = max(1, runs - 1)
    plot_w = _CHART_W - _PAD_L - _PAD_R
    plot_h = _CHART_H - _PAD_T - _PAD_B

    def x(i: int) -> float:
        return _PAD_L + plot_w * (i / span_x)

    def y(v: float) -> float:
        return _PAD_T + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f"<svg width='{_CHART_W}' height='{_CHART_H}' "
        f"viewBox='0 0 {_CHART_W} {_CHART_H}' role='img'>"
    ]
    # axes + min/max gridline labels
    parts.append(
        f"<line x1='{_PAD_L}' y1='{_PAD_T}' x2='{_PAD_L}' "
        f"y2='{_CHART_H - _PAD_B}' stroke='#999'/>"
        f"<line x1='{_PAD_L}' y1='{_CHART_H - _PAD_B}' x2='{_CHART_W - _PAD_R}' "
        f"y2='{_CHART_H - _PAD_B}' stroke='#999'/>"
        f"<text x='{_PAD_L - 6}' y='{_PAD_T + 4}' text-anchor='end' "
        f"font-size='10'>{_fmt(hi)}</text>"
        f"<text x='{_PAD_L - 6}' y='{_CHART_H - _PAD_B}' text-anchor='end' "
        f"font-size='10'>{_fmt(lo)}</text>"
        f"<text x='{_PAD_L}' y='{_CHART_H - 6}' font-size='10'>run 1</text>"
        f"<text x='{_CHART_W - _PAD_R}' y='{_CHART_H - 6}' text-anchor='end' "
        f"font-size='10'>run {runs}</text>"
    )
    for index, (label, points) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        segment: List[str] = []
        segments: List[List[str]] = []
        for i, value in enumerate(points):
            if value is None:
                if segment:
                    segments.append(segment)
                    segment = []
                continue
            segment.append(f"{x(i):.1f},{y(value):.1f}")
        if segment:
            segments.append(segment)
        title = html.escape(label, quote=True)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(
                    f"<circle cx='{cx}' cy='{cy}' r='2.5' fill='{color}'>"
                    f"<title>{title}</title></circle>"
                )
            else:
                parts.append(
                    f"<polyline points='{' '.join(seg)}' fill='none' "
                    f"stroke='{color}' stroke-width='1.5'>"
                    f"<title>{title}</title></polyline>"
                )
    parts.append("</svg>")
    legend = "".join(
        f"<span><span class='swatch' style='background:"
        f"{_PALETTE[i % len(_PALETTE)]}'></span>{html.escape(label)}</span>"
        for i, (label, _points) in enumerate(series)
    )
    return (
        f"<div class='chart'>{''.join(parts)}"
        f"<div class='legend'>{legend}</div></div>"
    )


def _series_table(
    records: List[Dict[str, object]],
) -> "Tuple[Dict[str, Dict[str, List[Optional[float]]]], Dict[str, List[Optional[float]]]]":
    """(qor_series, span_series) across ``records`` (one slot per run).

    ``qor_series`` maps metric -> {design label -> values}; ``span_series``
    maps span name -> total seconds per run.
    """
    qor_series: Dict[str, Dict[str, List[Optional[float]]]] = {
        metric: {} for metric in QOR_METRICS
    }
    span_series: Dict[str, List[Optional[float]]] = {}
    runs = len(records)
    for metric in QOR_METRICS:
        labels = sorted({label for r in records for label in (r.get("qor") or {})})
        for label in labels:
            qor_series[metric][label] = [None] * runs
    span_names = sorted({name for r in records for name in (r.get("span_summary") or {})})
    for name in span_names:
        span_series[name] = [None] * runs
    for i, record in enumerate(records):
        for label, entry in (record.get("qor") or {}).items():
            for metric in QOR_METRICS:
                value = entry.get(metric)
                if value is not None:
                    qor_series[metric][label][i] = float(value)
        for name, entry in (record.get("span_summary") or {}).items():
            span_series[name][i] = float(entry.get("total_s", 0.0))
    return qor_series, span_series


def render_dashboard(
    store: HistoryStore,
    key: Optional[str] = None,
    max_span_series: int = 12,
    title: str = "repro run history",
) -> str:
    """The dashboard HTML for a history store (optionally one key only).

    Self-contained by construction: inline CSS, inline SVG, zero script
    and zero external references.  Sections per grouping key: a run table
    (id, time, status, wall), one QoR chart per metric with a line per
    design label, and one latency chart with a line per span name (the
    ``max_span_series`` biggest by latest total, ``flow.*`` spans first).
    """
    keys = [key] if key is not None else store.keys()
    sections: List[str] = []
    total_runs = 0
    for group in keys:
        records = store.records(key=group)
        if not records:
            continue
        total_runs += len(records)
        runs = len(records)
        rows = "".join(
            f"<tr><td>{i + 1}</td><td>{html.escape(str(r.get('run_id')))}</td>"
            f"<td>{html.escape(str(r.get('command')))}</td>"
            f"<td>{html.escape(str(r.get('status')))}</td>"
            f"<td>{float(r.get('wall_s') or 0.0):.3f}</td></tr>"
            for i, r in enumerate(records)
        )
        section = [
            f"<h2>key <code>{html.escape(str(group))}</code></h2>",
            f"<p class='meta'>{runs} run(s)</p>",
            "<table><tr><th>#</th><th>run id</th><th>command</th>"
            f"<th>status</th><th>wall s</th></tr>{rows}</table>",
        ]
        qor_series, span_series = _series_table(records)
        for metric in QOR_METRICS:
            labelled = [
                (label, values)
                for label, values in sorted(qor_series[metric].items())
                if any(v is not None for v in values)
            ]
            if not labelled:
                continue
            section.append(f"<h3>QoR · {html.escape(metric)}</h3>")
            section.append(_svg_chart(labelled, runs))
        if span_series:
            def _rank(item: "Tuple[str, List[Optional[float]]]") -> Tuple[int, float, str]:
                name, values = item
                latest = next(
                    (v for v in reversed(values) if v is not None), 0.0
                )
                return (0 if name.startswith("flow.") else 1, -latest, name)

            ranked = sorted(span_series.items(), key=_rank)[:max_span_series]
            section.append("<h3>stage latency · span total seconds</h3>")
            section.append(_svg_chart(sorted(ranked), runs))
        sections.append("".join(section))
    data = {
        "schema": "repro.obs.report",
        "schema_version": 1,
        "tool_version": __version__,
        "keys": [k for k in keys if store.records(key=k)],
        "runs": total_runs,
    }
    body = "".join(sections) if sections else "<p class='meta'>empty history store</p>"
    return (
        "<!DOCTYPE html>\n<html lang='en'><head><meta charset='utf-8'>\n"
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n<body>\n"
        f"<h1>{html.escape(title)}</h1>\n"
        f"<p class='meta'>generated by repro-datapath {__version__} · "
        f"{total_runs} run(s) across {len(sections)} key(s)</p>\n"
        f"{body}\n"
        "<script type='application/json' id='repro-report-data'>\n"
        f"{json.dumps(data, indent=1, sort_keys=True)}\n"
        "</script>\n</body></html>\n"
    )


def write_dashboard(
    store: HistoryStore,
    path: Union[str, Path],
    key: Optional[str] = None,
    title: str = "repro run history",
) -> Path:
    """Render :func:`render_dashboard` to ``path``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(store, key=key, title=title))
    return path
