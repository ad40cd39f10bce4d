"""Run-history store and regression sentinel: memory across runs.

PR 6 gave one run spans, counters and a manifest; this module makes that
telemetry *durable*.  A :class:`HistoryStore` is one append-only
``history.jsonl`` file of schema-versioned records — one record per run,
joining the run manifest, the :class:`repro.api.FlowConfig` cache
identity, the QoR metrics per design, the span-summary aggregate and the
counter totals.  Everything is stdlib-only and byte-deterministic given
deterministic records.

On top of the store sits the **regression sentinel**: :func:`diff_records`
compares one run against a baseline built by :func:`select_baseline`
(median over the last N matching-key runs, which damps one-off
jitter) and emits *typed findings* — QoR drift, wall-time drift
(host-speed normalized by the median per-span ratio, so a uniformly
slower machine trips nothing), new/missing spans and counter anomalies — with
configurable :class:`Thresholds`.  :func:`check_history` is the CLI-facing
wrapper behind ``repro-datapath obs check``.  The QoR half of that diff,
:func:`qor_drift`, is also the golden-metric harness's comparison
(:mod:`repro.verify.golden`).

Recording is decoupled from the flow layer through :class:`RunRecorder`:
the CLI builds one per run and hands it to its command implementations,
which feed it metric dicts and cache keys as they produce them, and the
driver appends the assembled record on the way out — including for failed runs, whose ``status`` lets
the sentinel and the dashboard distinguish them.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.obs.events import load_events
from repro.obs.logbridge import get_logger
from repro.obs.tracer import HISTORY_ENV  # noqa: F401  (re-exported)

log = get_logger("obs.history")

#: record schema markers
RECORD_SCHEMA = "repro.obs.history.record"
RECORD_SCHEMA_VERSION = 1

#: the one file of a store directory
HISTORY_FILENAME = "history.jsonl"

#: QoR metrics carried per design entry (and pinned by the golden-metric
#: snapshot): counts compare exactly, floats within the tolerance band
QOR_INT_METRICS = ("cell_count", "fa_count", "ha_count")
QOR_FLOAT_METRICS = (
    "delay_ns",
    "area",
    "total_energy",
    "tree_energy",
    "place_hpwl",
    "cts_skew_ns",
)
QOR_METRICS = QOR_INT_METRICS + QOR_FLOAT_METRICS

#: keys every history record must carry (validated on append and on check)
_REQUIRED_KEYS = (
    "schema",
    "schema_version",
    "run_id",
    "unix_time",
    "command",
    "key",
    "status",
    "exit_code",
    "wall_s",
    "qor",
    "span_summary",
    "counters",
)

_STATUS_VALUES = ("ok", "error")


# --------------------------------------------------------------- records

#: per-process sequence folded into run ids, so records built within the
#: same clock tick (tests, fast CI loops) still get distinct identities
_RUN_SEQ = 0


def validate_record(record: object) -> List[str]:
    """All schema problems of one history record (empty list = valid)."""
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    problems: List[str] = []
    for key in _REQUIRED_KEYS:
        if key not in record:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if record["schema"] != RECORD_SCHEMA:
        problems.append(f"schema is {record['schema']!r}, expected {RECORD_SCHEMA!r}")
    if record["schema_version"] != RECORD_SCHEMA_VERSION:
        problems.append(f"unsupported schema_version {record['schema_version']!r}")
    if record["status"] not in _STATUS_VALUES:
        problems.append(f"status must be one of {_STATUS_VALUES}, got {record['status']!r}")
    if not isinstance(record["key"], str) or not record["key"]:
        problems.append("key must be a non-empty string")
    if not isinstance(record["qor"], dict):
        problems.append("qor must be an object (label -> metrics)")
    for name in ("span_summary", "counters"):
        if record[name] is not None and not isinstance(record[name], dict):
            problems.append(f"{name} must be an object or null")
    return problems


def build_record(
    command: str,
    key: str,
    status: str = "ok",
    exit_code: int = 0,
    wall_s: float = 0.0,
    qor: Optional[Mapping[str, Mapping[str, object]]] = None,
    span_summary: Optional[Mapping[str, Mapping[str, object]]] = None,
    counters: Optional[Mapping[str, float]] = None,
    manifest: Optional[Mapping[str, object]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble one valid history record (the one schema every writer uses).

    ``qor`` maps a stable label (see :meth:`RunRecorder.add_qor`) to the
    :data:`QOR_METRICS` of one synthesized design; ``manifest`` is a
    :func:`repro.obs.manifest.run_manifest` dict.  ``extra`` keys land in
    a dedicated sub-object, so schema evolution never collides with them.
    """
    global _RUN_SEQ
    _RUN_SEQ += 1
    unix_time = round(time.time(), 3)
    seed = f"{key}|{unix_time}|{os.getpid()}|{_RUN_SEQ}"
    record: Dict[str, object] = {
        "schema": RECORD_SCHEMA,
        "schema_version": RECORD_SCHEMA_VERSION,
        "run_id": hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16],
        "unix_time": unix_time,
        "command": str(command),
        "key": str(key),
        "status": str(status),
        "exit_code": int(exit_code),
        "wall_s": round(float(wall_s), 6),
        "qor": {label: dict(entry) for label, entry in (qor or {}).items()},
        "span_summary": dict(span_summary) if span_summary is not None else None,
        "counters": dict(counters) if counters is not None else None,
        "manifest": dict(manifest) if manifest is not None else None,
        "extra": dict(extra) if extra else None,
    }
    problems = validate_record(record)
    if problems:  # pragma: no cover - build_record always emits valid records
        raise ValueError(f"invalid history record: {problems}")
    return record


def qor_entry(metrics: Mapping[str, object]) -> Dict[str, object]:
    """The QoR sub-record of one metric dict (``FlowResult.to_dict`` shape)."""
    return {name: metrics.get(name) for name in QOR_METRICS}


def qor_label(metrics: Mapping[str, object]) -> str:
    """Stable per-design series label of one metric dict."""
    return (
        f"{metrics.get('design_name')}:{metrics.get('method')}"
        f":{metrics.get('final_adder')}:{metrics.get('library_name')}"
        f":O{metrics.get('opt_level', 0)}"
    )


# ---------------------------------------------------------------- store


class HistoryStore:
    """Append-only run-history store: one JSONL file, one record per line.

    Layout::

        DIR/
          history.jsonl            # one JSON record per line, append-only

    An append is a single ``os.write`` of one line on an ``O_APPEND``
    descriptor, the way :class:`repro.obs.events.EventBus` writes
    ``events.jsonl``, so concurrent runs appending to one store neither
    lose nor interleave records.  Reads go through the event streams'
    JSONL reader and tolerate a corrupt (truncated, garbage) line — the
    damage is skipped and logged, never fatal — and :meth:`compact`
    rewrites the file with only the valid records.  :meth:`check` reports
    corrupt lines and duplicate run ids without modifying anything (this
    is what ``tools/check_trace.py --history`` runs in CI).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / HISTORY_FILENAME

    def migration_needed(self) -> Optional[str]:
        """How to migrate an old segmented store directory, or ``None``.

        Earlier stores kept ``segments/seg-*.jsonl`` files; such a
        directory must not read as an empty store.
        """
        if self.path.exists() or not (self.root / "segments").is_dir():
            return None
        return (
            f"{self.root} holds the old segmented history layout; migrate it "
            f"with: cat {self.root}/segments/seg-*.jsonl > {self.path}"
        )

    def _read(self) -> Tuple[List[Dict[str, object]], int]:
        """(valid records in append order, corrupt line count)."""
        hint = self.migration_needed()
        if hint:
            raise ValueError(hint)
        if not self.path.is_file():
            return [], 0
        parsed, problems = load_events(self.path)
        records = [obj for obj in parsed if not validate_record(obj)]
        corrupt = len(problems) + len(parsed) - len(records)
        if corrupt:
            log.warning(
                "history: skipped %d corrupt line(s) in %s", corrupt, self.path
            )
        return records, corrupt

    def append(self, record: Mapping[str, object]) -> str:
        """Validate and append one record; returns its ``run_id``."""
        problems = validate_record(record)
        if problems:
            raise ValueError(f"invalid history record: {'; '.join(problems)}")
        hint = self.migration_needed()
        if hint:
            raise ValueError(hint)
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return str(record["run_id"])

    def records(
        self,
        key: Optional[str] = None,
        command: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """All valid records, optionally filtered by grouping key / command."""
        return [
            record
            for record in self._read()[0]
            if (key is None or record.get("key") == key)
            and (command is None or record.get("command") == command)
        ]

    def keys(self) -> List[str]:
        """Distinct grouping keys present in the store, sorted."""
        return sorted({str(record["key"]) for record in self.records()})

    def compact(self) -> Dict[str, object]:
        """Rewrite the store with the valid records only.

        The records go to a temporary file that then replaces the store,
        so it stays readable if the rewrite dies halfway.  Returns the
        records kept and the corrupt lines dropped.
        """
        kept, dropped = self._read()
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(HISTORY_FILENAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in kept:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        return {"records": len(kept), "dropped": dropped}

    def check(self) -> List[str]:
        """Corrupt lines and duplicate run ids of the store (empty = healthy)."""
        if not self.root.is_dir():
            return [f"{self.root}: not a directory"]
        hint = self.migration_needed()
        if hint:
            return [hint]
        records, corrupt = self._read()
        problems = [f"{self.path.name}: {corrupt} corrupt line(s)"] if corrupt else []
        run_ids: set = set()
        for record in records:
            run_id = str(record["run_id"])
            if run_id in run_ids:
                problems.append(f"duplicate run_id {run_id!r}")
            run_ids.add(run_id)
        return problems


# ------------------------------------------------------------- recorder


class RunRecorder:
    """Collector of one CLI run's history material (QoR, keys, extras).

    The CLI builds one per run and its command implementations feed it as
    results materialize, so the flow layer needs no knowledge of the
    store.  The grouping ``key``
    is the config cache key when the run describes exactly one
    configuration, otherwise a digest over every contributed key part —
    identical invocations always land in the same baseline group.
    """

    def __init__(self, command: str = "run") -> None:
        self.command = command
        self.qor: Dict[str, Dict[str, object]] = {}
        self.key_parts: List[str] = []
        self.extra: Dict[str, object] = {}

    def add_key(self, part: str) -> None:
        """Contribute one grouping-key part (a config cache key, an arg...)."""
        self.key_parts.append(str(part))

    def add_qor(self, metrics: Optional[Mapping[str, object]]) -> None:
        """Record the QoR metrics of one synthesized design (a metric dict).

        Labels collide only when two points share design/method/adder/
        library/opt-level while differing in some other axis; collisions
        get a deterministic ``#n`` suffix so no result is silently dropped.
        """
        if not metrics:
            return
        label = qor_label(metrics)
        entry = qor_entry(metrics)
        if label in self.qor and self.qor[label] != entry:
            suffix = 2
            while f"{label}#{suffix}" in self.qor and self.qor[f"{label}#{suffix}"] != entry:
                suffix += 1
            label = f"{label}#{suffix}"
        self.qor[label] = entry

    def add_extra(self, **facts: object) -> None:
        """Attach command-specific facts to the record's ``extra`` block."""
        self.extra.update(facts)

    def group_key(self) -> str:
        """The baseline grouping key of this run."""
        distinct = sorted(set(self.key_parts))
        if len(distinct) == 1:
            return distinct[0]
        digest = hashlib.sha256("\n".join(distinct).encode("utf-8")).hexdigest()[:16]
        return f"{self.command}:{digest}"

    def build(
        self,
        status: str = "ok",
        exit_code: int = 0,
        wall_s: float = 0.0,
        span_summary: Optional[Mapping[str, Mapping[str, object]]] = None,
        counters: Optional[Mapping[str, float]] = None,
        manifest: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Assemble the final history record of this run."""
        return build_record(
            command=self.command,
            key=self.group_key(),
            status=status,
            exit_code=exit_code,
            wall_s=wall_s,
            qor=self.qor,
            span_summary=span_summary,
            counters=counters,
            manifest=manifest,
            extra=self.extra,
        )


# ------------------------------------------------------------- sentinel


@dataclass(frozen=True)
class Thresholds:
    """Sentinel sensitivity knobs (every CLI flag maps to one field).

    ``wall_rel_tol`` applies *after* host-speed normalization, and a span
    only counts as drifted when its absolute excess also clears
    ``min_wall_s`` — sub-floor spans of a fast flow can jitter by large
    ratios without meaning anything.
    """

    qor_rel_tol: float = 0.02
    wall_rel_tol: float = 0.5
    min_wall_s: float = 0.05
    counter_rel_tol: float = 0.25
    last_n: int = 5


def _finding(
    kind: str,
    severity: str,
    subject: str,
    message: str,
    baseline: object = None,
    current: object = None,
    ratio: Optional[float] = None,
) -> Dict[str, object]:
    return {
        "kind": kind,
        "severity": severity,
        "subject": subject,
        "message": message,
        "baseline": baseline,
        "current": current,
        "ratio": round(ratio, 4) if ratio is not None else None,
    }


def _median(values: Iterable[object]) -> Optional[float]:
    numbers = [float(v) for v in values if v is not None]
    return statistics.median(numbers) if numbers else None


def select_baseline(
    records: List[Dict[str, object]], last_n: int = Thresholds.last_n
) -> Optional[Dict[str, object]]:
    """Median-aggregate baseline over the last ``last_n`` ``ok`` records.

    QoR values, span totals/counts, counters and the overall wall time are
    each the per-entry median over the selected runs, which damps one-off
    jitter.  Returns ``None`` when no ``ok`` record is available.
    """
    usable = [r for r in records if r.get("status") == "ok"][-max(1, last_n):]
    if not usable:
        return None
    qors = [r.get("qor") or {} for r in usable]
    spans = [r.get("span_summary") or {} for r in usable]
    counters = [r.get("counters") or {} for r in usable]

    def names(entries: List[Mapping[str, object]]) -> List[str]:
        return sorted({name for entry in entries for name in entry})

    return {
        "runs": len(usable),
        "run_ids": [str(r.get("run_id")) for r in usable],
        "key": usable[-1].get("key"),
        "wall_s": _median(r.get("wall_s") for r in usable) or 0.0,
        "qor": {
            label: {
                metric: _median(q[label].get(metric) for q in qors if label in q)
                for metric in QOR_METRICS
            }
            for label in names(qors)
        },
        "span_summary": {
            name: {
                stat: _median(s[name].get(stat) for s in spans if name in s) or 0.0
                for stat in ("count", "total_s")
            }
            for name in names(spans)
        },
        "counters": {
            name: _median(c.get(name) for c in counters) for name in names(counters)
        },
    }


def qor_drift(
    want: Mapping[str, object], have: Mapping[str, object], rel_tol: float
) -> List[Tuple[str, object, object, Optional[float], str]]:
    """QoR drift of one label: ``(metric, want, have, ratio, message)`` for
    each metric that moved.

    Counts compare exactly, floats within ``rel_tol`` of ``want``; a metric
    present on one side only has changed, one absent on both has not.  The
    message reads ``"<metric> changed a -> b"`` or ``"<metric> drifted
    beyond ±x%: a -> b"``; ``ratio`` is ``have / want`` of a banded drift.
    The sentinel renders the result as findings, the golden-metric harness
    as messages.
    """
    drift: List[Tuple[str, object, object, Optional[float], str]] = []
    for metric in QOR_METRICS:
        b, c = want.get(metric), have.get(metric)
        if b is None and c is None:
            continue
        if b is None or c is None or (
            metric in QOR_INT_METRICS and int(round(float(b))) != int(c)
        ):
            drift.append((metric, b, c, None, f"{metric} changed {b!r} -> {c!r}"))
        elif (
            metric in QOR_FLOAT_METRICS
            and abs(float(c) - float(b)) / max(abs(float(b)), 1e-12) > rel_tol
        ):
            drift.append((
                metric, b, c, float(c) / max(float(b), 1e-12),
                f"{metric} drifted beyond ±{rel_tol:.1%}: {b!r} -> {c!r}",
            ))
    return drift


def _diff_qor(
    current: Mapping[str, Mapping[str, object]],
    baseline: Mapping[str, Mapping[str, object]],
    thresholds: Thresholds,
    findings: List[Dict[str, object]],
) -> None:
    for label in sorted(set(baseline) - set(current)):
        findings.append(
            _finding(
                "qor_drift", "warn", label,
                f"{label}: in the baseline but not in this run",
                baseline=dict(baseline[label]),
            )
        )
    for label in sorted(set(current) - set(baseline)):
        findings.append(
            _finding(
                "qor_drift", "info", label,
                f"{label}: new in this run (no baseline)",
                current=dict(current[label]),
            )
        )
    for label in sorted(set(current) & set(baseline)):
        for metric, b, c, ratio, message in qor_drift(
            baseline[label], current[label], thresholds.qor_rel_tol
        ):
            findings.append(
                _finding(
                    "qor_drift", "fail", f"{label}.{metric}", f"{label}: {message}",
                    baseline=b, current=c, ratio=ratio,
                )
            )


def _diff_spans(
    current: Mapping[str, Mapping[str, object]],
    baseline: Mapping[str, Mapping[str, object]],
    thresholds: Thresholds,
    findings: List[Dict[str, object]],
) -> None:
    shared = sorted(set(current) & set(baseline))
    for name in sorted(set(baseline) - set(current)):
        findings.append(
            _finding(
                "missing_span", "warn", name,
                f"span {name!r} present in the baseline is missing from this run",
                baseline=float(baseline[name].get("total_s", 0.0)),
            )
        )
    for name in sorted(set(current) - set(baseline)):
        findings.append(
            _finding(
                "new_span", "warn", name,
                f"span {name!r} is new in this run",
                current=float(current[name].get("total_s", 0.0)),
            )
        )
    # host speed: the median per-span ratio, which one slow span cannot
    # move (a total-time ratio would absorb a slow stage through the
    # enclosing flow.run span and hide it)
    scale = _median(
        float(current[n].get("total_s", 0.0)) / float(baseline[n]["total_s"])
        for n in shared
        if float(baseline[n].get("total_s", 0.0)) > 0
    ) or 1.0
    for name in shared:
        base = float(baseline[name].get("total_s", 0.0))
        cur = float(current[name].get("total_s", 0.0))
        if max(base, cur) < thresholds.min_wall_s:
            continue  # sub-floor spans jitter meaninglessly
        expected = base * scale
        if (
            cur > expected * (1.0 + thresholds.wall_rel_tol)
            and cur - expected >= thresholds.min_wall_s
        ):
            findings.append(
                _finding(
                    "walltime_drift", "fail", name,
                    f"span {name!r}: {cur:.3f}s exceeds host-normalized "
                    f"baseline {expected:.3f}s by more than "
                    f"{thresholds.wall_rel_tol:.0%} (host scale {scale:.2f})",
                    baseline=round(base, 6), current=round(cur, 6),
                    ratio=cur / max(expected, 1e-12),
                )
            )
        elif (
            expected > cur * (1.0 + thresholds.wall_rel_tol)
            and expected - cur >= thresholds.min_wall_s
        ):
            findings.append(
                _finding(
                    "walltime_drift", "info", name,
                    f"span {name!r}: {cur:.3f}s is faster than the "
                    f"host-normalized baseline {expected:.3f}s "
                    f"(speedup — consider re-blessing the baseline)",
                    baseline=round(base, 6), current=round(cur, 6),
                    ratio=cur / max(expected, 1e-12),
                )
            )


def _diff_counters(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    thresholds: Thresholds,
    findings: List[Dict[str, object]],
) -> None:
    for name in sorted(set(baseline) - set(current)):
        findings.append(
            _finding(
                "counter_anomaly", "warn", name,
                f"counter {name!r} present in the baseline is missing",
                baseline=baseline[name],
            )
        )
    for name in sorted(set(current) - set(baseline)):
        findings.append(
            _finding(
                "counter_anomaly", "info", name,
                f"counter {name!r} is new in this run",
                current=current[name],
            )
        )
    for name in sorted(set(current) & set(baseline)):
        base, cur = float(baseline[name]), float(current[name])
        if base == cur:
            continue
        if base == 0.0:
            findings.append(
                _finding(
                    "counter_anomaly", "fail", name,
                    f"counter {name!r} changed {base!r} -> {cur!r}",
                    baseline=base, current=cur,
                )
            )
            continue
        drift = abs(cur - base) / abs(base)
        if drift > thresholds.counter_rel_tol:
            findings.append(
                _finding(
                    "counter_anomaly", "fail", name,
                    f"counter {name!r} drifted beyond "
                    f"±{thresholds.counter_rel_tol:.0%}: {base!r} -> {cur!r}",
                    baseline=base, current=cur, ratio=cur / base,
                )
            )


def diff_records(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    thresholds: Optional[Thresholds] = None,
) -> List[Dict[str, object]]:
    """Typed findings of one run vs a (possibly aggregated) baseline.

    The output is deterministic: findings are grouped by kind in a fixed
    order (status, QoR, wall time, spans, counters) and sorted by subject
    within each comparison.  ``info`` findings are advisory; ``check``
    callers typically gate on ``warn`` and ``fail`` only.
    """
    thresholds = thresholds if thresholds is not None else Thresholds()
    findings: List[Dict[str, object]] = []
    if current.get("status") != "ok":
        findings.append(
            _finding(
                "status_change", "fail", str(current.get("command")),
                f"run {current.get('run_id')} finished with status "
                f"{current.get('status')!r} (exit code {current.get('exit_code')})",
                baseline="ok", current=current.get("status"),
            )
        )
    _diff_qor(
        current.get("qor") or {}, baseline.get("qor") or {}, thresholds, findings
    )
    _diff_spans(
        current.get("span_summary") or {},
        baseline.get("span_summary") or {},
        thresholds,
        findings,
    )
    _diff_counters(
        current.get("counters") or {},
        baseline.get("counters") or {},
        thresholds,
        findings,
    )
    return findings


def gating_findings(findings: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The findings ``obs check`` gates on (``warn`` and ``fail`` severity)."""
    return [f for f in findings if f.get("severity") in ("warn", "fail")]


def check_history(
    store: HistoryStore,
    key: Optional[str] = None,
    thresholds: Optional[Thresholds] = None,
) -> Dict[str, object]:
    """Compare the latest run (of ``key``, or of the store) to its baseline.

    Returns a JSON-able result: the compared run/baseline identities, every
    finding, and ``ok`` (no gating finding).  A key with fewer than two
    records has no baseline — that is reported as ``baseline: None`` with
    ``ok: True``, so the very first run of a config never fails the gate.
    """
    thresholds = thresholds if thresholds is not None else Thresholds()
    records = store.records(key=key)
    if not records:
        return {
            "key": key,
            "run_id": None,
            "baseline": None,
            "findings": [],
            "ok": True,
            "note": "no records" + (f" for key {key!r}" if key else ""),
        }
    current = records[-1]
    baseline = select_baseline(records[:-1], last_n=thresholds.last_n)
    if baseline is None:
        return {
            "key": current.get("key"),
            "run_id": current.get("run_id"),
            "baseline": None,
            "findings": [],
            "ok": True,
            "note": "no baseline yet (first run of this key)",
        }
    findings = diff_records(current, baseline, thresholds)
    return {
        "key": current.get("key"),
        "run_id": current.get("run_id"),
        "baseline": {"runs": baseline["runs"], "run_ids": baseline["run_ids"]},
        "findings": findings,
        "ok": not gating_findings(findings),
    }


def render_findings(findings: List[Dict[str, object]]) -> str:
    """Deterministic text rendering of a finding list (one line each)."""
    if not findings:
        return "no findings"
    lines = []
    for finding in findings:
        lines.append(
            f"[{finding['severity'].upper():<4}] {finding['kind']:<16} "
            f"{finding['message']}"
        )
    return "\n".join(lines)
