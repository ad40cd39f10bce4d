"""Live telemetry bus: schema-versioned JSONL event streams for runs.

Where the tracer (:mod:`repro.obs.tracer`) answers *"what happened?"*
after a run, the event bus answers *"what is happening?"* while it runs.
An :class:`EventBus` multiplexes small structured events to an
append-only JSONL file and to in-process subscribers (the live progress
renderer, tests); each sweep worker process opens its own bus on the
same file (same ``run_id``), so one ``events.jsonl`` interleaves the
whole fleet and ``repro obs tail`` can follow it live.

Schema (``repro.obs.events`` v1) — one JSON object per line::

    {"schema": "repro.obs.events", "schema_version": 1,
     "ts": <epoch seconds>, "run_id": "<hex>", "pid": <int>,
     "seq": <int>, "kind": "<kind>", "attrs": {...}}

``seq`` increments by exactly one per event within an emitter's
``(run_id, pid)`` stream, and the emitter advances it even when a file
write fails, which is what lets :func:`check_event_stream` verify the
recorded stream is gap-free and strictly increasing per pid: a gap means
an emitter lost a write (e.g. a swallowed ``os.write`` error on a full
disk), a repeat or regression means two emitters shared a pid.  Kinds:

====================  ====================================================
``run_start``         CLI driver: command, argv
``point_start``       dispatcher: a sweep point was dispatched (or cached)
``point_end``         dispatcher: outcome of a point (ok/error/cached;
                      a failure after a timeout or a worker crash
                      carries ``reason``)
``heartbeat``         worker: still alive inside a point
``resource``          any pid: RSS/CPU gauges (the periodic sampler)
``stall``             dispatcher: point exceeded stall_factor x median
``retry``             dispatcher: point re-dispatched (timeout or crash)
``run_end``           CLI driver: status, wall time
====================  ====================================================

Like the tracer, the bus is installed process-wide (:func:`eventing`);
code that emits reads :func:`current_bus` and does nothing when it is
``None``, so uninstrumented runs cost nothing.  Every roll-up of a run
(the sweep's ``events_summary``, the ``--live`` line and table, the
per-kind counts of ``obs events-check``) is one :class:`EventFold` over
the stream; the bus itself keeps no tally.  File appends are a single
``os.write`` on an ``O_APPEND`` descriptor — atomic for lines under
``PIPE_BUF``, so a killed worker can tear at most its own unflushed line,
never interleave bytes into another pid's line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.logbridge import get_logger
from repro.obs.resource import sample_resources
from repro.obs.tracer import current_bus, eventing  # noqa: F401  (re-exported)

EVENT_SCHEMA = "repro.obs.events"
EVENT_SCHEMA_VERSION = 1

#: the closed set of event kinds in schema v1
EVENT_KINDS = (
    "run_start",
    "point_start",
    "point_end",
    "heartbeat",
    "resource",
    "stall",
    "retry",
    "run_end",
)

#: default file name used by ``--events DIR``
EVENTS_FILENAME = "events.jsonl"

log = get_logger("obs.events")


def new_run_id() -> str:
    """A 16-hex-char run identifier (same shape as history record ids)."""
    seed = f"{os.getpid()}:{time.time_ns()}".encode("utf-8")
    return hashlib.sha256(seed).hexdigest()[:16]


def _json_safe(value):
    """Coerce an attribute value to something JSON-serializable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


class EventBus:
    """Multiplexes telemetry events to a JSONL file and subscribers.

    Parameters
    ----------
    path:
        Optional path of the append-only JSONL stream.  ``None`` keeps the
        bus purely in-process (subscribers only) — tests and the ``--live``
        renderer work without touching disk.
    run_id:
        Identifier stamped on every event; generated when omitted.  Worker
        buses reuse the driver's id so one file holds one logical run.

    ``emit`` is thread-safe (heartbeat threads share the bus with the main
    thread); subscriber exceptions are logged and swallowed so a broken
    renderer can never corrupt a sweep.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.run_id = run_id or new_run_id()
        self._fd: Optional[int] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: List[Callable[[dict], None]] = []

    # -- subscribers --------------------------------------------------

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        with contextlib.suppress(ValueError):
            self._subscribers.remove(fn)

    # -- emission -----------------------------------------------------

    def emit(self, kind: str, **attrs) -> dict:
        """Emit one event; returns the event object that was written."""
        event = {
            "schema": EVENT_SCHEMA,
            "schema_version": EVENT_SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "run_id": self.run_id,
            "pid": os.getpid(),
            "kind": kind,
            "attrs": {key: _json_safe(value) for key, value in attrs.items()},
        }
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            if self._fd is not None:
                line = json.dumps(event, sort_keys=True) + "\n"
                try:
                    os.write(self._fd, line.encode("utf-8"))
                except OSError as exc:  # full disk must not kill the sweep
                    log.warning("event write failed: %s", exc)
        for fn in list(self._subscribers):
            try:
                fn(event)
            except Exception as exc:
                log.warning("event subscriber %r failed: %s", fn, exc)
        return event

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                with contextlib.suppress(OSError):
                    os.close(self._fd)
                self._fd = None


class EventFold:
    """One pass over an event stream: every tally of a run.

    Subscribe :meth:`handle` to a bus, or feed it the events of a recorded
    stream.  It counts events per kind, the points done, ok and served
    from cache, the timeouts and worker crashes named by ``reason`` attrs,
    and keeps the fresh point times and the highest ``peak_rss_bytes`` a
    ``point_end`` reported.  :meth:`summary` is the sweep's
    ``events_summary``; :class:`~repro.obs.progress.ProgressRenderer`
    paints the same tallies live.
    """

    def __init__(self) -> None:
        self.by_kind: Dict[str, int] = {}
        self.total: Optional[int] = None
        self.done = 0
        self.ok = 0
        self.cached = 0
        self.timeouts = 0
        self.worker_crashes = 0
        #: elapsed seconds of every fresh (not cached) point, failed ones too
        self.durations: List[float] = []
        self.peak_rss_bytes: Optional[int] = None

    @property
    def failed(self) -> int:
        return self.done - self.ok

    @property
    def stalls(self) -> int:
        return self.by_kind.get("stall", 0)

    @property
    def retries(self) -> int:
        return self.by_kind.get("retry", 0)

    def handle(self, event: dict) -> None:
        """EventBus subscriber entry point."""
        kind = event.get("kind")
        if not isinstance(kind, str):
            return
        attrs = event.get("attrs")
        if not isinstance(attrs, dict):
            attrs = {}
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        reason = attrs.get("reason")
        if reason == "timeout":
            self.timeouts += 1
        elif reason == "worker-crash":
            self.worker_crashes += 1
        if kind == "point_start":
            total = attrs.get("total")
            if isinstance(total, int):
                self.total = total
        elif kind == "point_end":
            self.done += 1
            cached = bool(attrs.get("cached"))
            self.cached += cached
            self.ok += bool(attrs.get("ok"))
            elapsed = attrs.get("elapsed_s")
            if not cached and isinstance(elapsed, (int, float)):
                self.durations.append(float(elapsed))
            rss = attrs.get("peak_rss_bytes")
            if isinstance(rss, int):
                self.peak_rss_bytes = max(rss, self.peak_rss_bytes or 0)

    def summary(self, wall_s: float, jobs: int) -> Dict[str, object]:
        """The ``events_summary`` roll-up of a sweep that took ``wall_s``
        on ``jobs`` workers, for artifacts and run history."""
        utilization = None
        if wall_s > 0 and jobs > 0:
            utilization = round(min(1.0, sum(self.durations) / (wall_s * jobs)), 4)
        summary: Dict[str, object] = {
            "points": self.done,
            "cache_hits": self.cached,
            "cache_misses": self.done - self.cached,
            "stalls": self.stalls,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "worker_utilization": utilization,
        }
        if self.peak_rss_bytes is not None:
            summary["peak_rss_bytes"] = self.peak_rss_bytes
        return summary


@contextlib.contextmanager
def _periodic(bus: Optional[EventBus], interval: float, heartbeat: Optional[dict]):
    """The one periodic sampler: every ``interval`` seconds while the body
    runs, a daemon thread emits a ``resource`` event on ``bus``, preceded
    by a ``heartbeat`` carrying the ``heartbeat`` attrs unless they are
    ``None``.  A no-op without a bus or a positive interval.

    A hung-but-alive body keeps the thread beating (that is the point of a
    heartbeat: the stream distinguishes *stuck* from *dead*), so the exit
    join is bounded.
    """
    if bus is None or interval is None or interval <= 0:
        yield
        return
    stop = threading.Event()
    start = time.perf_counter()

    def _beat() -> None:
        while not stop.wait(interval):
            elapsed = round(time.perf_counter() - start, 6)
            if heartbeat is not None:
                bus.emit("heartbeat", elapsed_s=elapsed, **heartbeat)
            bus.emit("resource", elapsed_s=elapsed, **sample_resources())

    thread = threading.Thread(target=_beat, name="repro-sampler", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=0.2)


def point_heartbeat(bus: Optional[EventBus], interval: float, **attrs):
    """``heartbeat`` + ``resource`` events every ``interval`` seconds while
    the body (one sweep point) runs."""
    return _periodic(bus, interval, attrs)


def resource_sampling(bus: Optional[EventBus], interval: float = 1.0):
    """``resource`` events every ``interval`` seconds while the body (a
    whole CLI run) runs."""
    return _periodic(bus, interval, None)


# -- validation (mirrors chrome.validate_trace_obj) -------------------


def validate_event_obj(obj) -> List[str]:
    """Structural check of one event object; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"event is {type(obj).__name__}, expected object"]
    if obj.get("schema") != EVENT_SCHEMA:
        problems.append(f"schema is {obj.get('schema')!r}, expected {EVENT_SCHEMA!r}")
    if obj.get("schema_version") != EVENT_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {obj.get('schema_version')!r}, "
            f"expected {EVENT_SCHEMA_VERSION}"
        )
    if not isinstance(obj.get("ts"), (int, float)):
        problems.append("ts missing or not a number")
    if not isinstance(obj.get("run_id"), str) or not obj.get("run_id"):
        problems.append("run_id missing or not a non-empty string")
    if not isinstance(obj.get("pid"), int):
        problems.append("pid missing or not an integer")
    seq = obj.get("seq")
    if not isinstance(seq, int) or seq < 0:
        problems.append("seq missing or not a non-negative integer")
    kind = obj.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"kind {kind!r} not in {'/'.join(EVENT_KINDS)}")
    if not isinstance(obj.get("attrs"), dict):
        problems.append("attrs missing or not an object")
    return problems


def load_events(path: Union[str, Path]) -> Tuple[List[dict], List[str]]:
    """Parse a JSONL event stream; corrupt lines become problems, not
    exceptions (a live stream may end in a torn final line)."""
    events: List[dict] = []
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not valid JSON ({exc.msg})")
    return events, problems


def check_event_stream(
    events: Iterable[dict], require: Sequence[str] = ()
) -> List[str]:
    """Validate a whole stream: per-event schema, a gap-free strictly
    increasing ``seq`` per ``(run_id, pid)`` emitter (a gap flags a lost
    write — the emitter advances ``seq`` even when a write fails), and
    presence of ``require``-d kinds."""
    problems: List[str] = []
    last_seq: Dict[Tuple[str, int], int] = {}
    fold = EventFold()
    for index, event in enumerate(events):
        for problem in validate_event_obj(event):
            problems.append(f"event {index}: {problem}")
        if not isinstance(event, dict):
            continue
        fold.handle(event)
        run_id, pid, seq = event.get("run_id"), event.get("pid"), event.get("seq")
        if isinstance(run_id, str) and isinstance(pid, int) and isinstance(seq, int):
            key = (run_id, pid)
            if key in last_seq and seq <= last_seq[key]:
                problems.append(
                    f"event {index}: seq {seq} not monotone for pid {pid} "
                    f"(last was {last_seq[key]})"
                )
            elif key in last_seq and seq != last_seq[key] + 1:
                problems.append(
                    f"event {index}: seq gap for pid {pid} "
                    f"({last_seq[key]} -> {seq}): emitter lost "
                    f"{seq - last_seq[key] - 1} event(s)"
                )
            last_seq[key] = seq
    for kind in require:
        if kind not in fold.by_kind:
            problems.append(f"required event kind {kind!r} never emitted")
    return problems
