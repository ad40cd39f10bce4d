"""Run-history store and regression sentinel: memory across runs.

PR 6 gave one run spans, counters and a manifest; this module makes that
telemetry *durable*.  A :class:`HistoryStore` is an append-only directory of
schema-versioned JSONL segments plus a compacted ``index.json`` — one
record per run, joining the run manifest, the :class:`repro.api.FlowConfig`
cache identity, the QoR metrics per design, the span-summary aggregate and
the counter totals.  Everything is stdlib-only and byte-deterministic given
deterministic records.

On top of the store sits the **regression sentinel**: :func:`diff_records`
compares one run against a baseline built by :func:`select_baseline`
(median over the last N matching-key runs, which damps one-off
jitter) and emits *typed findings* — QoR drift, wall-time drift
(host-speed normalized by the total-runtime ratio, so a uniformly slower
machine trips nothing), new/missing spans and counter anomalies — with
configurable :class:`Thresholds`.  :func:`check_history` is the CLI-facing
wrapper behind ``repro-datapath obs check``.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.obs.logbridge import get_logger
from repro.obs.tracer import HISTORY_ENV  # noqa: F401  (re-exported)

log = get_logger("obs.history")

#: record / index / store schema markers
RECORD_SCHEMA = "repro.obs.history.record"
RECORD_SCHEMA_VERSION = 1
INDEX_SCHEMA = "repro.obs.history.index"
INDEX_SCHEMA_VERSION = 1

#: QoR metrics carried per design entry: counts compare exactly, floats
#: within the tolerance band (mirrors the golden-metric harness)
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
    """Append-only run-history store: JSONL segments + compacted index.

    Layout::

        DIR/
          index.json               # segment inventory + per-key record counts
          segments/
            seg-000001.jsonl       # one JSON record per line, append-only
            seg-000002.jsonl

    Appends go to the newest segment until it holds
    ``max_segment_records`` records, then a new segment is started.  Reads
    tolerate a corrupt (truncated, garbage) line — the damage is skipped
    and logged, never fatal — and :meth:`compact` rewrites the store with
    only the valid records.  :meth:`check` reports schema and
    index-consistency problems without modifying anything (this is what
    ``tools/check_trace.py --history`` runs in CI).
    """

    def __init__(
        self, root: Union[str, Path], max_segment_records: int = 256
    ) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.index_path = self.root / "index.json"
        self.max_segment_records = max(1, int(max_segment_records))

    # ------------------------------------------------------------ index

    def _empty_index(self) -> Dict[str, object]:
        return {
            "schema": INDEX_SCHEMA,
            "schema_version": INDEX_SCHEMA_VERSION,
            "records": 0,
            "segments": {},
            "keys": {},
        }

    def _load_index(self) -> Dict[str, object]:
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                index = json.load(handle)
        except (OSError, ValueError):
            return self._empty_index()
        if not isinstance(index, dict) or index.get("schema") != INDEX_SCHEMA:
            return self._empty_index()
        return index

    def _write_index(self, index: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index_path, "w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ---------------------------------------------------------- segments

    def _segment_names(self) -> List[str]:
        if not self.segments_dir.is_dir():
            return []
        return sorted(
            path.name
            for path in self.segments_dir.iterdir()
            if path.name.startswith("seg-") and path.suffix == ".jsonl"
        )

    def _segment_records(self, name: str) -> Tuple[List[Dict[str, object]], int]:
        """(valid records, corrupt line count) of one segment file."""
        records: List[Dict[str, object]] = []
        corrupt = 0
        try:
            with open(self.segments_dir / name, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        corrupt += 1
                        continue
                    if validate_record(record):
                        corrupt += 1
                        continue
                    records.append(record)
        except OSError as exc:
            log.warning("history: cannot read segment %s: %s", name, exc)
        if corrupt:
            log.warning(
                "history: skipped %d corrupt line(s) in segment %s", corrupt, name
            )
        return records, corrupt

    def _open_segment(self, index: Dict[str, object]) -> str:
        """The segment appends should go to (rotating when full)."""
        segments: Dict[str, object] = index["segments"]  # type: ignore[assignment]
        names = self._segment_names()
        if names:
            last = names[-1]
            counted = segments.get(last, {})
            if int(counted.get("records", self.max_segment_records)) < self.max_segment_records:
                return last
            next_number = int(last[len("seg-"):-len(".jsonl")]) + 1
        else:
            next_number = 1
        return f"seg-{next_number:06d}.jsonl"

    # ------------------------------------------------------------- API

    def append(self, record: Mapping[str, object]) -> str:
        """Validate and append one record; returns its ``run_id``.

        The write is a single ``write()`` of one JSON line (no rewrite of
        existing data), then the index is refreshed — a crash between the
        two leaves a recoverable store (``check`` flags the stale index,
        ``compact`` rebuilds it).
        """
        problems = validate_record(record)
        if problems:
            raise ValueError(f"invalid history record: {'; '.join(problems)}")
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        index = self._load_index()
        name = self._open_segment(index)
        line = json.dumps(record, sort_keys=True)
        with open(self.segments_dir / name, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        segments: Dict[str, Dict[str, object]] = index["segments"]  # type: ignore[assignment]
        entry = segments.setdefault(name, {"records": 0})
        entry["records"] = int(entry["records"]) + 1
        index["records"] = int(index["records"]) + 1
        keys: Dict[str, int] = index["keys"]  # type: ignore[assignment]
        key = str(record["key"])
        keys[key] = int(keys.get(key, 0)) + 1
        self._write_index(index)
        return str(record["run_id"])

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """All valid records, in append order (corrupt lines skipped)."""
        for name in self._segment_names():
            records, _corrupt = self._segment_records(name)
            for record in records:
                yield record

    def records(
        self,
        key: Optional[str] = None,
        command: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """All valid records, optionally filtered by grouping key / command."""
        out = []
        for record in self.iter_records():
            if key is not None and record.get("key") != key:
                continue
            if command is not None and record.get("command") != command:
                continue
            out.append(record)
        return out

    def keys(self) -> List[str]:
        """Distinct grouping keys present in the store, sorted."""
        return sorted({str(record["key"]) for record in self.iter_records()})

    def compact(self) -> Dict[str, object]:
        """Rewrite the store: valid records only, fresh segments and index.

        Returns a small summary dict (records kept, corrupt lines dropped,
        segments before/after).
        """
        names = self._segment_names()
        kept: List[Dict[str, object]] = []
        dropped = 0
        for name in names:
            records, corrupt = self._segment_records(name)
            kept.extend(records)
            dropped += corrupt
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        # write the compacted segments under temporary names first, then
        # swap: the store stays readable if the rewrite dies halfway
        new_files: List[Tuple[str, List[Dict[str, object]]]] = []
        for start in range(0, len(kept), self.max_segment_records):
            chunk = kept[start : start + self.max_segment_records]
            new_files.append((f"seg-{len(new_files) + 1:06d}.jsonl", chunk))
        for name, chunk in new_files:
            tmp = self.segments_dir / (name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for record in chunk:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        for name in names:
            os.remove(self.segments_dir / name)
        for name, _chunk in new_files:
            os.replace(self.segments_dir / (name + ".tmp"), self.segments_dir / name)
        index = self._empty_index()
        index["records"] = len(kept)
        index["segments"] = {
            name: {"records": len(chunk)} for name, chunk in new_files
        }
        keys: Dict[str, int] = {}
        for record in kept:
            key = str(record["key"])
            keys[key] = keys.get(key, 0) + 1
        index["keys"] = keys
        self._write_index(index)
        return {
            "records": len(kept),
            "dropped": dropped,
            "segments_before": len(names),
            "segments_after": len(new_files),
        }

    def check(self) -> List[str]:
        """Schema / index consistency problems of the store (empty = healthy)."""
        problems: List[str] = []
        if not self.root.is_dir():
            return [f"{self.root}: not a directory"]
        names = self._segment_names()
        counted: Dict[str, int] = {}
        key_counts: Dict[str, int] = {}
        run_ids: set = set()
        for name in names:
            records, corrupt = self._segment_records(name)
            if corrupt:
                problems.append(f"segment {name}: {corrupt} corrupt line(s)")
            counted[name] = len(records)
            for record in records:
                key_counts[str(record["key"])] = (
                    key_counts.get(str(record["key"]), 0) + 1
                )
                run_id = str(record["run_id"])
                if run_id in run_ids:
                    problems.append(f"duplicate run_id {run_id!r}")
                run_ids.add(run_id)
        if not self.index_path.is_file():
            if names:
                problems.append("index.json missing (run compact to rebuild)")
            return problems
        index = self._load_index()
        if index.get("schema") != INDEX_SCHEMA:
            problems.append("index.json: bad or missing schema")
            return problems
        indexed: Dict[str, Dict[str, object]] = index.get("segments", {})  # type: ignore[assignment]
        for name in sorted(set(counted) | set(indexed)):
            have, want = counted.get(name), indexed.get(name)
            if want is None:
                problems.append(f"segment {name} not in index")
            elif have is None:
                problems.append(f"index lists missing segment {name}")
            elif int(want.get("records", -1)) != have:
                problems.append(
                    f"index counts {want.get('records')} record(s) for {name}, "
                    f"segment holds {have}"
                )
        total = sum(counted.values())
        if int(index.get("records", -1)) != total:
            problems.append(
                f"index counts {index.get('records')} record(s), store holds {total}"
            )
        indexed_keys: Dict[str, int] = index.get("keys", {})  # type: ignore[assignment]
        if {k: int(v) for k, v in indexed_keys.items()} != key_counts:
            problems.append("index per-key counts disagree with the segments")
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
    qor: Dict[str, Dict[str, Optional[float]]] = {}
    labels = sorted({label for r in usable for label in r.get("qor", {})})
    for label in labels:
        entries = [r["qor"][label] for r in usable if label in r.get("qor", {})]
        qor[label] = {
            metric: _median(e.get(metric) for e in entries) for metric in QOR_METRICS
        }
    span_names = sorted(
        {name for r in usable for name in (r.get("span_summary") or {})}
    )
    span_summary: Dict[str, Dict[str, float]] = {}
    for name in span_names:
        entries = [
            (r.get("span_summary") or {}).get(name)
            for r in usable
            if name in (r.get("span_summary") or {})
        ]
        span_summary[name] = {
            "count": _median(e.get("count") for e in entries) or 0.0,
            "total_s": _median(e.get("total_s") for e in entries) or 0.0,
        }
    counter_names = sorted({name for r in usable for name in (r.get("counters") or {})})
    counters = {
        name: _median(
            (r.get("counters") or {}).get(name)
            for r in usable
            if name in (r.get("counters") or {})
        )
        for name in counter_names
    }
    return {
        "runs": len(usable),
        "run_ids": [str(r.get("run_id")) for r in usable],
        "key": usable[-1].get("key"),
        "wall_s": _median(r.get("wall_s") for r in usable) or 0.0,
        "qor": qor,
        "span_summary": span_summary,
        "counters": counters,
    }


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
        want, have = baseline[label], current[label]
        for metric in QOR_INT_METRICS:
            b, c = want.get(metric), have.get(metric)
            if b is None and c is None:
                continue
            if b is None or c is None or int(round(float(b))) != int(c):
                findings.append(
                    _finding(
                        "qor_drift", "fail", f"{label}.{metric}",
                        f"{label}: {metric} changed {b!r} -> {c!r}",
                        baseline=b, current=c,
                    )
                )
        for metric in QOR_FLOAT_METRICS:
            b, c = want.get(metric), have.get(metric)
            if b is None and c is None:
                continue
            if b is None or c is None:
                findings.append(
                    _finding(
                        "qor_drift", "fail", f"{label}.{metric}",
                        f"{label}: {metric} changed {b!r} -> {c!r}",
                        baseline=b, current=c,
                    )
                )
                continue
            reference = max(abs(float(b)), 1e-12)
            drift = abs(float(c) - float(b)) / reference
            if drift > thresholds.qor_rel_tol:
                findings.append(
                    _finding(
                        "qor_drift", "fail", f"{label}.{metric}",
                        f"{label}: {metric} drifted beyond "
                        f"±{thresholds.qor_rel_tol:.1%}: {b!r} -> {c!r}",
                        baseline=b, current=c, ratio=float(c) / max(float(b), 1e-12),
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
    base_total = sum(float(baseline[n].get("total_s", 0.0)) for n in shared)
    cur_total = sum(float(current[n].get("total_s", 0.0)) for n in shared)
    scale = cur_total / base_total if base_total > 0 else 1.0
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
