"""Sweep execution engine: points in, metric records out.

The engine turns a :class:`~repro.explore.spec.SweepSpec` (or an explicit
point list) into :class:`PointOutcome` records:

* cached points are answered from the :class:`~repro.explore.cache.ResultCache`
  without synthesizing anything;
* the remaining points run through :func:`execute_point`, in the caller
  (``jobs <= 1``) or on ``jobs`` worker processes forked for this sweep;
* a point that raises is captured as a per-point error record instead of
  aborting the sweep.

Workers receive only the (picklable) :class:`SweepPoint` and return only the
metric dict, so no netlist ever crosses a process boundary.

:func:`execute_point` is the single-point execution path: one
:class:`repro.api.Flow` run of the point's config.

One dispatcher serves both :func:`run_sweep` and :func:`parallel_map`, the
generic fan-out the verification subsystem (:mod:`repro.verify`) runs its
fuzz cases and metamorphic checks on.  Each worker is a
:class:`multiprocessing.Process` fed one item at a time over its own pipe,
so a worker that dies names the item it was running: only that worker is
respawned, and the item is retried up to ``max_retries`` times, then
recorded as a :class:`WorkerFailure`.  An item whose worker function raises
fails at once, with no retry.  Only when a worker cannot be started does
the rest run serially in the caller (``used_fallback``); an item that
crashed a worker never runs there.

Observability: when a :mod:`repro.obs` tracer is active in the parent, the
dispatcher runs every item under its own child tracer (in the worker for
parallel runs) and ships its spans back with the result; the parent adopts
them, so one ``--trace`` file renders the whole sweep as a merged
multi-process timeline.  When an :class:`repro.obs.EventBus` is active
(``--events`` / ``--live``), the sweep streams
``point_start``/``point_end``/``stall``/``retry`` events (with
``--events``, each worker opens its own bus on the shared JSONL stream and
heartbeats while a point runs), and the dispatcher watches in-flight
points: one exceeding
``stall_factor x`` the rolling median is flagged as a straggler, and one
exceeding the hard ``point_timeout`` has its worker terminated and
respawned, and is retried like a crash — a hung worker can no longer hang
the sweep.  ``REPRO_POINT_HANG`` plants such a hang for tests and CI,
symmetric to ``REPRO_STAGE_DELAY``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.api.flow import Flow, env_seconds
from repro.api.result import FlowResult
from repro.explore.cache import ResultCache
from repro.explore.spec import SweepPoint, SweepSpec
from repro.obs.events import EventBus, EventFold, point_heartbeat
from repro.obs.logbridge import get_logger
from repro.obs.manifest import peak_rss_bytes

log = get_logger("explore")

#: fault-injection hook symmetric to ``REPRO_STAGE_DELAY``:
#: ``"<point-index>=<seconds>[,...]"`` makes the *first* attempt of the
#: indexed sweep point sleep before synthesizing — a planted transient
#: straggler, so stall detection and timeout re-dispatch are testable.
#: The retry attempt skips the sleep and completes.  Parsed by
#: :func:`repro.api.flow.env_seconds`; malformed entries are ignored with a
#: warning.
POINT_HANG_ENV = "REPRO_POINT_HANG"


def execute_point(point: SweepPoint) -> FlowResult:
    """Synthesize one sweep point, returning the full result.

    A point is a design name plus its :class:`repro.api.FlowConfig`, so
    this is just one staged :class:`repro.api.Flow` run of
    ``point.config``; the design and library are built from their registry
    names.
    """
    return Flow(point.config).run(point.design)


def _run_one(task: Tuple[SweepPoint, float], attempt: int, heartbeat_s: float) -> Dict:
    """Worker body of one sweep point ``(point, planted hang seconds)``.

    While the point runs, a daemon thread emits ``heartbeat``/``resource``
    events on the active bus — a hung-but-alive worker keeps beating, which
    is exactly how the stream distinguishes *stuck* from *dead*.
    """
    point, hang_s = task
    label = point.label()
    with point_heartbeat(obs.current_bus(), heartbeat_s, point=label, attempt=attempt):
        if hang_s > 0 and attempt == 0:
            # planted transient straggler (REPRO_POINT_HANG): first
            # attempt only, so the re-dispatched attempt completes
            time.sleep(hang_s)
        with obs.span("explore.point", point=label):
            return execute_point(point).to_dict()


@dataclass(frozen=True)
class WorkerFailure:
    """The result of an item that produced none: its worker function
    raised, or its worker process crashed or timed out."""

    error: str


@dataclass
class PointOutcome:
    """What happened to one sweep point."""

    point: SweepPoint
    metrics: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    cached: bool = False
    elapsed_s: float = 0.0
    #: spans recorded while executing this point (traced runs only)
    spans: Optional[List[Dict[str, object]]] = None

    @property
    def ok(self) -> bool:
        """True when the point produced metrics (fresh or cached)."""
        return self.metrics is not None

    def span_summary(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Per-name span aggregate of this point (``None`` when untraced)."""
        if self.spans is None:
            return None
        return obs.aggregate_spans(self.spans)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record: one per sweep point in the artifacts.

        The ``span_summary`` key appears only on traced runs, so untraced
        artifacts (and the golden files pinned against them) are unchanged.
        """
        record = {
            "point": self.point.to_dict(),
            "ok": self.ok,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
            "metrics": self.metrics,
            "error": self.error,
        }
        if self.spans is not None:
            record["span_summary"] = self.span_summary()
        return record


@dataclass
class SweepResult:
    """All outcomes of one sweep run, in spec expansion order."""

    outcomes: List[PointOutcome]
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    used_fallback: bool = False
    elapsed_s: float = 0.0
    #: roll-up of the sweep's events (stalls, retries, peak RSS, worker
    #: utilization); only set on monitored runs (active event bus or point
    #: timeout), so plain runs' artifacts stay byte-identical
    events_summary: Optional[Dict[str, object]] = None

    @property
    def records(self) -> List[Dict[str, object]]:
        """Metric dicts of the successful points (cached ones included)."""
        return [o.metrics for o in self.outcomes if o.metrics is not None]

    @property
    def failures(self) -> List[PointOutcome]:
        """Outcomes whose synthesis raised."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        """True when every point succeeded."""
        return not self.failures

    def span_summary(self) -> Dict[str, Dict[str, object]]:
        """Span aggregate over every traced point (empty if untraced)."""
        return obs.aggregate_spans(s for o in self.outcomes for s in o.spans or ())

    def summary(self) -> str:
        """One-line sweep summary for logs and the CLI.

        Cache hits and fresh computations are reported separately — a
        sweep that was 100% cached and one that recomputed everything are
        very different runs even though both "finished N points".
        """
        parts = [
            f"{len(self.outcomes)} points",
            f"{len(self.failures)} failed",
            f"{self.cache_hits} cached / {self.cache_misses} fresh",
            f"jobs={self.jobs}",
            f"{self.elapsed_s:.2f}s",
        ]
        if self.events_summary:
            stalls = self.events_summary.get("stalls", 0)
            retries = self.events_summary.get("retries", 0)
            if stalls or retries:
                parts.append(f"stalls={stalls} retries={retries}")
        if self.used_fallback:
            parts.append("serial-fallback")
        return "sweep: " + ", ".join(parts)


ProgressFn = Callable[[PointOutcome, int, int], None]

#: a :func:`parallel_map` worker: one task in, one result out; an exception
#: it raises becomes a :class:`WorkerFailure` in that item's result slot
Worker = Callable[[object], object]

#: what the dispatcher hands back per item: (result, elapsed_s, spans)
_Report = Callable[[int, object, float, Optional[List[Dict[str, object]]]], None]


class _SweepMonitor:
    """Dispatcher-side straggler policy and event emission for one run.

    Owns what the dispatcher must not know about sweeps: per-item attempt
    counts (which feed the ``REPRO_POINT_HANG`` first-attempt-only
    semantics and the shared crash/timeout retry budget), the median of
    successful item times (the stall threshold), the stall-flagged set,
    per-item crash strikes, and the ``point_*`` event emission on the
    run's bus, from which :class:`repro.obs.EventFold` derives every tally.
    A monitor is active when it has a bus: the dispatcher then watches
    in-flight items instead of blocking on its workers.  A ``point_timeout``
    without a bus opens a private in-memory one, since it needs watching.
    """

    #: dispatcher wake-up period while watching in-flight points
    tick_s = 0.05
    #: never flag a stall below this, whatever the median says
    stall_floor_s = 0.2

    def __init__(
        self,
        labels: Sequence[str],
        bus: Optional[EventBus] = None,
        point_timeout: Optional[float] = None,
        stall_factor: Optional[float] = 4.0,
        max_retries: int = 1,
    ) -> None:
        self.labels = labels
        self.bus = EventBus() if bus is None and point_timeout is not None else bus
        self.point_timeout = point_timeout
        self.stall_factor = stall_factor
        self.max_retries = max(0, int(max_retries))
        self.attempts: Dict[int, int] = {}
        self.durations: List[float] = []
        self.crashes: Dict[int, int] = {}
        self._stall_flagged: Set[Tuple[int, int]] = set()

    # -- configuration ------------------------------------------------

    @property
    def active(self) -> bool:
        """True when in-flight items are watched and reported as events."""
        return self.bus is not None

    def worker_events(self) -> Optional[Dict[str, object]]:
        """How each worker opens its own bus on this run's stream; ``None``
        unless the run streams to a file, since a worker's in-memory bus
        would have no reader."""
        if self.bus is None or self.bus.path is None:
            return None
        return {"path": self.bus.path, "run_id": self.bus.run_id}

    def attempt(self, index: int) -> int:
        return self.attempts.get(index, 0)

    def _emit(self, kind: str, **attrs) -> None:
        if self.bus is not None:
            self.bus.emit(kind, **attrs)

    # -- dispatcher hooks ---------------------------------------------

    def on_start(self, index: int) -> None:
        self._emit(
            "point_start",
            index=index,
            point=self.labels[index],
            attempt=self.attempt(index),
            total=len(self.labels),
            cached=False,
        )

    def on_cached(self, index: int) -> None:
        common = dict(index=index, point=self.labels[index], attempt=0, cached=True)
        self._emit("point_start", total=len(self.labels), **common)
        self._emit("point_end", ok=True, elapsed_s=0.0, **common)

    def on_result(
        self,
        index: int,
        result: object,
        elapsed: float,
        telemetry: Optional[Dict],
        reason: Optional[str] = None,
    ) -> None:
        """``reason`` names the timeout or worker crash a failure ended in."""
        failed = isinstance(result, WorkerFailure)
        if not failed:
            self.durations.append(elapsed)
        attrs = dict(
            index=index,
            point=self.labels[index],
            attempt=self.attempt(index),
            ok=not failed,
            cached=False,
            elapsed_s=round(elapsed, 6),
        )
        if failed:
            attrs["error"] = result.error
        if reason is not None:
            attrs["reason"] = reason
        rss = (telemetry or {}).get("peak_rss_bytes")
        if rss is not None:
            attrs["peak_rss_bytes"] = rss
        self._emit("point_end", **attrs)

    def on_retry(self, index: int, reason: str, elapsed_s: float = 0.0) -> None:
        attempt = self.attempt(index) + 1
        self.attempts[index] = attempt
        label = self.labels[index]
        log.warning(
            "point %s (index %d) re-dispatched after %s (attempt %d)",
            label, index, reason, attempt,
        )
        self._emit(
            "retry",
            index=index,
            point=label,
            attempt=attempt,
            reason=reason,
            elapsed_s=round(elapsed_s, 6),
        )

    # -- straggler policy ---------------------------------------------

    def check_stall(self, index: int, elapsed: float) -> None:
        """Flag a straggler: in-flight longer than stall_factor x median."""
        if self.stall_factor is None or not self.durations:
            return
        median = statistics.median(self.durations)
        threshold = max(self.stall_factor * median, self.stall_floor_s)
        key = (index, self.attempt(index))
        if elapsed <= threshold or key in self._stall_flagged:
            return
        self._stall_flagged.add(key)
        label = self.labels[index]
        log.warning(
            "point %s (index %d) stalling: %.2fs in flight, %.1fx median %.2fs",
            label, index, elapsed, self.stall_factor, median,
        )
        self._emit(
            "stall",
            index=index,
            point=label,
            attempt=self.attempt(index),
            elapsed_s=round(elapsed, 6),
            threshold_s=round(threshold, 6),
        )

    def timed_out(self, elapsed: float) -> bool:
        return self.point_timeout is not None and elapsed > self.point_timeout

    def can_retry(self, index: int) -> bool:
        return self.attempt(index) < self.max_retries

    # -- synthesized results ------------------------------------------

    def failure(self, index: int, reason: str) -> WorkerFailure:
        """The result of an item whose last worker timed out or crashed."""
        if reason == "timeout":
            return WorkerFailure(
                f"TimeoutError: point exceeded point_timeout={self.point_timeout}s "
                f"after {self.attempt(index) + 1} attempt(s); worker terminated"
            )
        return WorkerFailure(
            f"RuntimeError: worker process crashed "
            f"{self.crashes.get(index, 0)} time(s) running this point"
        )


def _call(
    fn: Callable[[object, int], object], item: object, attempt: int, trace: bool
) -> Tuple[object, float, Dict[str, object]]:
    """Run one item: ``(result, elapsed_s, telemetry)``.  Never raises.

    A raising ``fn`` yields a :class:`WorkerFailure`.  ``telemetry``
    carries the process peak RSS and, with ``trace``, the spans and
    counters of the child tracer the item ran under.
    """
    tracer = obs.Tracer() if trace else None
    start = time.perf_counter()
    try:
        with obs.tracing(tracer):
            result = fn(item, attempt)
    except Exception as exc:  # per-item capture is the whole point
        result = WorkerFailure(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    telemetry: Dict[str, object] = {"peak_rss_bytes": peak_rss_bytes()}
    if tracer is not None:
        telemetry.update(spans=tracer.to_dicts(), counters=dict(tracer.counters))
    return result, elapsed, telemetry


def _serve(fn, conn, trace: bool, events: Optional[Dict[str, object]]) -> None:
    """Worker process main loop: ``(item, attempt)`` in, :func:`_call` out,
    until the parent sends ``None``."""
    bus = EventBus(**events) if events is not None else None
    with obs.eventing(bus), contextlib.suppress(EOFError):
        for message in iter(conn.recv, None):
            conn.send(_call(fn, *message, trace))
    if bus is not None:
        bus.close()


class _SpawnFailed(Exception):
    """A worker process could not be started."""


class _Worker:
    """One owned worker process, the parent end of its pipe and the item
    it is running (``index is None`` while idle)."""

    def __init__(self, fn, trace: bool, events: Optional[Dict[str, object]]) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(fn, child, trace, events)
        )
        try:
            self.process.start()
        except OSError as exc:
            self.conn.close()
            raise _SpawnFailed(exc) from exc
        finally:
            # the child's end lives on only in the child, so its death
            # reads as EOF on ``conn``
            child.close()
        self.index: Optional[int] = None
        self.since = 0.0

    def send(self, index: int, item: object, attempt: int) -> None:
        self.index, self.since = index, time.perf_counter()
        self.conn.send((item, attempt))

    def stop(self, kill: bool = False) -> None:
        """Join the process: an idle one exits on request, a busy (or
        ``kill``-ed) one is terminated, so stopping never waits out a hung
        item."""
        if kill or self.index is not None:
            self.process.terminate()
        else:
            with contextlib.suppress(OSError):
                self.conn.send(None)
        self.index = None
        self.process.join()
        self.conn.close()


def _dispatch(
    fn: Callable[[object, int], object],
    pending: List[Tuple[int, object]],
    jobs: int,
    report: _Report,
    monitor: _SweepMonitor,
) -> bool:
    """Run ``fn(item, attempt)`` over ``pending`` ``(index, item)`` pairs;
    True if the serial fallback ran.

    ``jobs <= 1`` runs in the caller; otherwise on ``jobs`` forked
    workers.  ``report`` is called once per item, in completion order.  A
    crashed or timed-out worker is respawned and its item retried up to
    ``monitor.max_retries`` times, then reported as a
    :class:`WorkerFailure`.  If a worker cannot be started, the unreported
    items run in the caller, except those that crashed a worker, which
    fail.  An exception raised by ``report`` propagates once every worker
    is stopped.
    """
    items = dict(pending)
    queue = deque(index for index, _ in pending)
    tracer = obs.current_tracer()

    def finish(
        index: int, result: object, elapsed: float, telemetry=None, reason=None
    ) -> None:
        spans = (telemetry or {}).get("spans")
        if spans is not None:
            tracer.adopt(spans, telemetry["counters"])
        monitor.on_result(index, result, elapsed, telemetry, reason)
        report(index, result, elapsed, spans)

    def run_here(index: int) -> None:
        if monitor.crashes.get(index):
            # its crash was already reported with the retry it earned
            finish(index, monitor.failure(index, "worker-crash"), 0.0)
            return
        monitor.on_start(index)
        finish(index, *_call(fn, items[index], monitor.attempt(index), tracer is not None))

    if jobs <= 1:
        while queue:
            run_here(queue.popleft())
        return False

    def settle(index: int, reason: str, elapsed: float) -> None:
        """``index``'s worker crashed or timed out: retry it or fail it."""
        if monitor.can_retry(index):
            monitor.on_retry(index, reason, elapsed)
            queue.appendleft(index)
        else:
            finish(index, monitor.failure(index, reason), elapsed, reason=reason)

    spawn = partial(_Worker, fn, tracer is not None, monitor.worker_events())
    workers: List[_Worker] = []

    def replace(slot: int) -> None:
        workers[slot].stop(kill=True)
        workers[slot] = spawn()

    try:
        for _ in range(jobs):
            workers.append(spawn())
        while queue or any(w.index is not None for w in workers):
            for worker in workers:
                if worker.index is None and queue:
                    index = queue.popleft()
                    monitor.on_start(index)
                    with contextlib.suppress(OSError):  # a dead worker reads as EOF
                        worker.send(index, items[index], monitor.attempt(index))
            busy = [w.conn for w in workers if w.index is not None]
            ready = wait(busy, monitor.tick_s if monitor.active else None)
            now = time.perf_counter()
            for slot, worker in enumerate(workers):
                index = worker.index
                if index is None:
                    continue
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        monitor.crashes[index] = monitor.crashes.get(index, 0) + 1
                        settle(index, "worker-crash", 0.0)
                        replace(slot)
                        continue
                    worker.index = None
                    finish(index, *message)
                elif monitor.active:
                    elapsed = now - worker.since
                    monitor.check_stall(index, elapsed)
                    if monitor.timed_out(elapsed):
                        settle(index, "timeout", elapsed)
                        replace(slot)
    except _SpawnFailed as exc:
        log.warning("cannot start a worker process (%s); the rest runs serially", exc)
        queue.extendleft(w.index for w in reversed(workers) if w.index is not None)
    else:
        return False
    finally:
        for worker in workers:
            worker.stop()
    while queue:
        run_here(queue.popleft())
    return True


def _item_only(worker: Worker, item: object, _attempt: int) -> object:
    return worker(item)


def parallel_map(
    worker: Worker,
    items: Sequence[object],
    jobs: int = 1,
    progress: Optional[Callable[[object, object, int, int], None]] = None,
) -> Tuple[List[object], bool]:
    """Map ``worker`` over ``items`` on the sweep dispatcher.

    Returns ``(results, used_fallback)`` with results in input order.
    ``jobs <= 1`` runs in the caller; otherwise ``jobs`` worker processes
    are forked for this call, so ``worker`` must be picklable only where
    the platform cannot fork.  An item whose ``worker`` raises, or whose
    worker process crashes twice, gets a :class:`WorkerFailure` in its
    result slot; the other items are unaffected.  ``used_fallback`` is
    True when a worker process could not be started and the rest ran in
    the caller.  ``progress`` is invoked as ``(item, result, done_count,
    total)`` in completion order.
    """
    results: Dict[int, object] = {}

    def report(index: int, result: object, _elapsed: float, _spans) -> None:
        results[index] = result
        if progress is not None:
            progress(items[index], result, len(results), len(items))

    monitor = _SweepMonitor([f"item {index}" for index in range(len(items))])
    used_fallback = _dispatch(
        partial(_item_only, worker),
        list(enumerate(items)),
        max(1, min(jobs, len(items))),
        report,
        monitor,
    )
    return [results[i] for i in range(len(items))], used_fallback


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepPoint]],
    jobs: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
    *,
    point_timeout: Optional[float] = None,
    stall_factor: Optional[float] = 4.0,
    max_retries: int = 1,
    heartbeat_s: float = 1.0,
) -> SweepResult:
    """Run every point of ``spec``, honouring the cache and the workers.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (expanded here) or an explicit point sequence.
    jobs:
        Worker processes forked for the uncached points; ``<= 1`` runs
        them in the caller.
    cache:
        A :class:`ResultCache`, a directory path to open one in, or ``None``
        to disable caching.  Fresh results are written back to the cache.
    progress:
        Optional callback ``(outcome, done_count, total)`` invoked as each
        point resolves (cached points first, then completions in whatever
        order the workers finish them).
    point_timeout:
        Hard per-point wall-time budget (parallel runs only): a point in
        flight longer than this has its worker terminated and respawned,
        and is retried like a crash — the sweep always accounts for every
        point instead of hanging.
    stall_factor:
        Straggler threshold: a point in flight longer than
        ``stall_factor x`` the rolling median of fresh point times emits a
        ``stall`` event and a warning (``None`` disables the check).
    max_retries:
        Re-dispatch budget per point whose worker crashed or timed out.
    heartbeat_s:
        Worker heartbeat period for evented runs (``<= 0`` disables).

    When a :class:`repro.obs.EventBus` is active (see
    :func:`repro.obs.eventing`), the sweep streams live
    ``point_start``/``point_end``/``stall``/``retry`` events and, when the
    bus writes a file, workers append ``heartbeat``/``resource`` gauges to
    it.  A ``point_timeout`` without an active bus runs on a private
    in-memory one.  Either way an :class:`repro.obs.EventFold` subscribed
    for the sweep rolls the events up into ``SweepResult.events_summary``
    and the ``obs.counter`` metrics ``events.stalls`` / ``events.retries``
    for the regression sentinel.
    """
    start = time.perf_counter()
    points = spec.expand() if isinstance(spec, SweepSpec) else [p.canonical() for p in spec]
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    monitor = _SweepMonitor(
        [point.label() for point in points],
        obs.current_bus(),
        point_timeout=point_timeout,
        stall_factor=stall_factor,
        max_retries=max_retries,
    )

    outcomes: Dict[int, PointOutcome] = {}

    def report(index: int, outcome: PointOutcome) -> None:
        if cache is not None and outcome.metrics is not None and not outcome.cached:
            cache.put(outcome.point, outcome.metrics)
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome, len(outcomes), len(points))

    def report_fresh(index: int, result: object, elapsed: float, spans) -> None:
        failed = isinstance(result, WorkerFailure)
        report(index, PointOutcome(
            points[index],
            metrics=None if failed else result,
            error=result.error if failed else None,
            elapsed_s=elapsed,
            spans=spans,
        ))

    fold = EventFold()
    if monitor.active:
        monitor.bus.subscribe(fold.handle)
    try:
        with obs.span("explore.sweep", points=len(points), jobs=jobs):
            pending: List[Tuple[int, Tuple[SweepPoint, float]]] = []
            hangs = env_seconds(POINT_HANG_ENV, int)
            for index, point in enumerate(points):
                metrics = cache.get(point) if cache is not None else None
                if metrics is not None:
                    monitor.on_cached(index)
                    report(index, PointOutcome(point, metrics, cached=True))
                else:
                    pending.append((index, (point, hangs.get(index, 0.0))))
            hits = len(points) - len(pending)
            log.debug(
                "sweep: %d point(s), %d cached, %d to run",
                len(points), hits, len(pending),
            )
            effective_jobs = max(1, min(jobs, len(pending)))
            used_fallback = _dispatch(
                partial(_run_one, heartbeat_s=heartbeat_s),
                pending,
                effective_jobs,
                report_fresh,
                monitor,
            )
    finally:
        if monitor.active:
            monitor.bus.unsubscribe(fold.handle)

    result = SweepResult(
        outcomes=[outcomes[i] for i in range(len(points))],
        jobs=effective_jobs,
        cache_hits=hits,
        cache_misses=len(pending),
        used_fallback=used_fallback,
        elapsed_s=time.perf_counter() - start,
    )
    if monitor.active:
        result.events_summary = fold.summary(result.elapsed_s, effective_jobs)
        # sentinel-visible drift gauges: only on monitored runs, so plain
        # runs' history records keep their historic counter set
        obs.counter("events.stalls", fold.stalls)
        obs.counter("events.retries", fold.retries)
    return result
