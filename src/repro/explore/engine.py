"""Sweep execution engine: points in, metric records out.

The engine turns a :class:`~repro.explore.spec.SweepSpec` (or an explicit
point list) into :class:`PointOutcome` records:

* cached points are answered from the :class:`~repro.explore.cache.ResultCache`
  without synthesizing anything;
* the remaining points run through :func:`execute_point` either serially or
  on a ``ProcessPoolExecutor`` worker pool (``jobs > 1``), falling back to
  serial execution when the platform cannot spawn worker processes;
* a point that raises is captured as a per-point error record instead of
  aborting the sweep.

Workers receive only the (picklable) :class:`SweepPoint` and return only the
metric dict, so no netlist ever crosses a process boundary.

:func:`execute_point` is also the single-point execution path that
:func:`repro.flows.compare.compare_methods` runs on, which keeps the paper's
table harnesses and ad-hoc sweeps on the same code path.

The pool machinery itself is exposed as :func:`parallel_map`, a generic
fan-out over any picklable worker function with the same serial-fallback
semantics — this is what the verification subsystem (:mod:`repro.verify`)
runs its fuzz cases and metamorphic checks on.  A pool whose worker
*process* dies (``BrokenProcessPool``) is rebuilt and the in-flight
items are re-dispatched (only the point that was alone in flight is
charged with the crash; co-resident siblings are requeued unpenalized),
so a single crashed worker no longer degrades the whole fan-out to a
serial re-run.

Observability: when a :mod:`repro.obs` tracer is active in the parent,
every point runs under its own child tracer (in the worker process for
parallel sweeps) and ships its spans back with the metric record; the
parent adopts them, so one ``--trace`` file renders the whole sweep as a
merged multi-process timeline.  When an :class:`repro.obs.EventBus` is
active (``--events`` / ``--live``), the dispatcher additionally streams
``point_start``/``point_end``/``stall``/``retry`` events, workers run a
daemon heartbeat thread appending ``heartbeat``/``resource`` gauges to
the shared JSONL stream, and the dispatcher watches in-flight points: one
exceeding ``stall_factor x`` the rolling median is flagged as a
straggler, and one exceeding the hard ``point_timeout`` is abandoned,
re-dispatched up to ``max_retries`` times, then recorded as errored —
a hung worker can no longer hang the sweep.  ``REPRO_POINT_HANG`` plants
such a hang for tests and CI, symmetric to ``REPRO_STAGE_DELAY``.
"""

from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.api.flow import Flow
from repro.api.result import FlowResult
from repro.designs.base import DatapathDesign
from repro.explore.cache import ResultCache
from repro.explore.spec import SweepPoint, SweepSpec
from repro.obs.events import point_heartbeat, worker_bus
from repro.obs.logbridge import get_logger
from repro.obs.manifest import peak_rss_bytes
from repro.tech.library import TechLibrary

log = get_logger("explore")

#: fault-injection hook symmetric to ``REPRO_STAGE_DELAY``:
#: ``"<point-index>=<seconds>[,...]"`` makes the *first* attempt of the
#: indexed sweep point sleep before synthesizing — a planted transient
#: straggler, so stall detection and timeout re-dispatch are testable.
#: The retry attempt skips the sleep and completes.  Malformed entries
#: are ignored with a warning.
POINT_HANG_ENV = "REPRO_POINT_HANG"

#: a point whose worker process crashes this many times is recorded as an
#: error result instead of being re-dispatched again
_MAX_CRASHES_PER_POINT = 2


def _point_hangs() -> Dict[int, float]:
    """Parse :data:`POINT_HANG_ENV` into ``{point_index: seconds}``."""
    raw = os.environ.get(POINT_HANG_ENV)
    if not raw:
        return {}
    hangs: Dict[int, float] = {}
    for part in raw.split(","):
        index, _, seconds = part.partition("=")
        try:
            hangs[int(index.strip())] = float(seconds)
        except ValueError:
            log.warning("ignoring malformed %s entry %r", POINT_HANG_ENV, part)
    return hangs


def execute_point(
    point: SweepPoint,
    design: Optional[DatapathDesign] = None,
    library: Optional[TechLibrary] = None,
) -> FlowResult:
    """Synthesize one sweep point, returning the full result.

    The point's cache-relevant fields *are* a :class:`repro.api.FlowConfig`
    (see ``SweepPoint.config()``), so this is just one staged
    :class:`repro.api.Flow` run.  ``design`` / ``library`` may be passed to
    reuse already-built objects (the comparison harness does); otherwise
    they are rebuilt from the point's registry names, which is what pool
    workers do.
    """
    flow = Flow(point.config())
    return flow.run(design if design is not None else point.design, library=library)


def _run_one(
    point: SweepPoint,
    attempt: int = 0,
    hang_s: float = 0.0,
    trace: bool = False,
    events: Optional[Dict] = None,
) -> Tuple[Optional[Dict], Optional[str], float, Optional[Dict]]:
    """Worker body: (metrics, error, elapsed_s, telemetry). Never raises.

    With ``trace=True`` the point runs under its own :class:`repro.obs`
    tracer (this is the trace context propagated across the process pool)
    and the picklable telemetry dict carries the serialized spans and
    counters back to the parent, which adopts them into its tracer.

    ``events`` is the picklable telemetry-bus config
    (``{path, run_id, heartbeat_s, parent_pid}``): inside a pool worker it
    opens a per-process file bus on the shared JSONL stream, in the parent
    (serial sweeps, serial fallback) it reuses the active bus.  While the
    point runs, a daemon thread emits ``heartbeat``/``resource`` events —
    a hung-but-alive worker keeps beating, which is exactly how the stream
    distinguishes *stuck* from *dead*.
    """
    start = time.perf_counter()
    bus = None
    heartbeat_s = 0.0
    if events is not None:
        heartbeat_s = events.get("heartbeat_s") or 0.0
        path = events.get("path")
        if path and os.getpid() != events.get("parent_pid"):
            bus = worker_bus(path, events["run_id"])
        else:
            bus = obs.current_bus()
    tracer = obs.Tracer() if trace else None
    telemetry: Optional[Dict] = None
    try:
        with point_heartbeat(
            bus, heartbeat_s, point=point.label(), attempt=attempt
        ):
            if hang_s > 0 and attempt == 0:
                # planted transient straggler (REPRO_POINT_HANG): first
                # attempt only, so the re-dispatched attempt completes
                time.sleep(hang_s)
            with obs.tracing(tracer):
                with obs.span("explore.point", point=point.label()):
                    metrics = execute_point(point).to_dict()
        error = None
    except Exception as exc:  # per-point capture is the whole point
        metrics, error = None, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        telemetry = {"spans": tracer.to_dicts(), "counters": dict(tracer.counters)}
    if bus is not None:
        telemetry = dict(telemetry or {})
        telemetry["peak_rss_bytes"] = peak_rss_bytes()
    return metrics, error, time.perf_counter() - start, telemetry


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
    #: telemetry roll-up (stalls, retries, peak RSS, worker utilization);
    #: only set on monitored runs (active event bus or point timeout), so
    #: plain runs' artifacts stay byte-identical
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
        """Merged span aggregate over every traced point (empty if untraced)."""
        from repro.explore.records import merge_span_summaries

        return merge_span_summaries(o.span_summary() for o in self.outcomes)

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

#: a picklable worker: one task in, one result out; must capture its own
#: exceptions and encode failures in its result (a raising worker kills its
#: process and is handled as a crashed worker: the pool is rebuilt and the
#: item re-dispatched, then re-run serially if the pool stays unusable)
Worker = Callable[[object], object]


class _SweepMonitor:
    """Dispatcher-side telemetry + straggler policy for one sweep.

    Owns everything :func:`_run_parallel` must not know about sweeps:
    per-point attempt counts (which feed the ``REPRO_POINT_HANG``
    first-attempt-only semantics), the rolling median of fresh point
    times (stall threshold and ETA source), stall/timeout/retry/crash
    accounting, and the ``point_*`` event emission on the active bus.
    A monitor with no bus and no timeout is inert: every hook degrades
    to a counter update, and the dispatcher keeps its historic
    submit-everything/blocking-wait behavior.
    """

    #: dispatcher wake-up period while watching in-flight points
    tick_s = 0.05
    #: never flag a stall below this, whatever the median says
    stall_floor_s = 0.2

    def __init__(
        self,
        points: Sequence[SweepPoint],
        bus,
        point_timeout: Optional[float] = None,
        stall_factor: Optional[float] = 4.0,
        max_retries: int = 1,
        heartbeat_s: float = 1.0,
    ) -> None:
        self.points = points
        self.bus = bus
        self.point_timeout = point_timeout
        self.stall_factor = stall_factor
        self.max_retries = max(0, int(max_retries))
        self.heartbeat_s = heartbeat_s
        self.hangs = _point_hangs()
        self.attempts: Dict[int, int] = {}
        self.durations: List[float] = []
        self.crashes: Dict[int, int] = {}
        self.stalls = 0
        self.retries = 0
        self.timeouts = 0
        self.peak_rss_bytes: Optional[int] = None
        self._started: Set[Tuple[int, int]] = set()
        self._stall_flagged: Set[Tuple[int, int]] = set()

    # -- configuration ------------------------------------------------

    @property
    def active(self) -> bool:
        """True when this run should produce an ``events_summary``."""
        return self.bus is not None or self.point_timeout is not None

    @property
    def watching(self) -> bool:
        """True when the dispatcher must wake up and scan in-flight points."""
        return self.active

    def worker_events(self, parallel: bool) -> Optional[Dict]:
        """The picklable bus config handed to ``_run_one`` workers."""
        if self.bus is None:
            return None
        path = str(self.bus.path) if self.bus.path is not None else None
        if parallel and path is None:
            return None  # an in-memory bus cannot cross the process boundary
        return {
            "path": path,
            "run_id": self.bus.run_id,
            "heartbeat_s": self.heartbeat_s,
            "parent_pid": os.getpid(),
        }

    def submit_args(self, index: int) -> Tuple[int, float]:
        """Extra ``_run_one`` arguments: (attempt, planted hang seconds)."""
        return (self.attempts.get(index, 0), self.hangs.get(index, 0.0))

    def _label(self, index: int) -> str:
        return self.points[index].label()

    def _emit(self, kind: str, **attrs) -> None:
        if self.bus is not None:
            self.bus.emit(kind, **attrs)

    # -- dispatcher hooks ---------------------------------------------

    def on_start(self, index: int) -> None:
        attempt = self.attempts.get(index, 0)
        key = (index, attempt)
        if key in self._started:  # re-submission after a pool rebuild
            return
        self._started.add(key)
        self._emit(
            "point_start",
            index=index,
            point=self._label(index),
            attempt=attempt,
            total=len(self.points),
            cached=False,
        )

    def on_cached(self, index: int) -> None:
        label = self._label(index)
        common = dict(index=index, point=label, attempt=0, cached=True)
        self._emit("point_start", total=len(self.points), **common)
        self._emit("point_end", ok=True, elapsed_s=0.0, **common)

    def on_result(self, index: int, raw: object, wall_s: float) -> None:
        metrics, error, elapsed, telemetry = raw
        if telemetry:
            rss = telemetry.get("peak_rss_bytes")
            if isinstance(rss, int) and (
                self.peak_rss_bytes is None or rss > self.peak_rss_bytes
            ):
                self.peak_rss_bytes = rss
        if error is None:
            self.durations.append(elapsed)
        attrs = dict(
            index=index,
            point=self._label(index),
            attempt=self.attempts.get(index, 0),
            ok=error is None,
            cached=False,
            elapsed_s=round(elapsed, 6),
        )
        if error is not None:
            attrs["error"] = error
        if telemetry and telemetry.get("peak_rss_bytes") is not None:
            attrs["peak_rss_bytes"] = telemetry["peak_rss_bytes"]
        self._emit("point_end", **attrs)

    def on_retry(self, index: int, reason: str, elapsed_s: float = 0.0) -> None:
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        self.retries += 1
        if reason == "timeout":
            self.timeouts += 1
        label = self._label(index)
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
        key = (index, self.attempts.get(index, 0))
        if elapsed <= threshold or key in self._stall_flagged:
            return
        self._stall_flagged.add(key)
        self.stalls += 1
        label = self._label(index)
        log.warning(
            "point %s (index %d) stalling: %.2fs in flight, %.1fx median %.2fs",
            label, index, elapsed, self.stall_factor, median,
        )
        self._emit(
            "stall",
            index=index,
            point=label,
            attempt=self.attempts.get(index, 0),
            elapsed_s=round(elapsed, 6),
            threshold_s=round(threshold, 6),
        )

    def timed_out(self, elapsed: float) -> bool:
        return self.point_timeout is not None and elapsed > self.point_timeout

    def can_retry(self, index: int) -> bool:
        return self.attempts.get(index, 0) < self.max_retries

    # -- synthesized raw results --------------------------------------

    def timeout_result(self, index: int, elapsed: float) -> Tuple:
        self.timeouts += 1
        attempts = self.attempts.get(index, 0) + 1
        return (
            None,
            f"TimeoutError: point exceeded point_timeout={self.point_timeout}s "
            f"after {attempts} attempt(s); worker abandoned",
            elapsed,
            None,
        )

    def crash_result(self, index: int) -> Tuple:
        return (
            None,
            f"RuntimeError: worker process crashed "
            f"{self.crashes.get(index, 0)} time(s) running this point",
            0.0,
            None,
        )

    def build_summary(self, result: "SweepResult", effective_jobs: int) -> Dict:
        """The ``events_summary`` roll-up for artifacts and run history."""
        busy = sum(o.elapsed_s for o in result.outcomes if not o.cached)
        utilization = None
        if result.elapsed_s > 0 and effective_jobs > 0:
            utilization = round(
                min(1.0, busy / (result.elapsed_s * effective_jobs)), 4
            )
        summary: Dict[str, object] = {
            "points": len(result.outcomes),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "stalls": self.stalls,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": sum(self.crashes.values()),
            "worker_utilization": utilization,
        }
        if self.peak_rss_bytes is not None:
            summary["peak_rss_bytes"] = self.peak_rss_bytes
        return summary


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut down a pool that may hold hung or crashed workers, without
    waiting on them.

    ``shutdown(wait=False, cancel_futures=True)`` drops the queued work;
    terminating the worker processes (private map, best effort) unsticks
    a truly hung worker so sweep exit never blocks on an abandoned point.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - already-broken pools may raise
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - racing process exit
            pass


def _run_serial(
    worker: Worker,
    pending: List[Tuple[int, object]],
    report: Callable[[int, object], None],
    monitor: Optional[_SweepMonitor] = None,
) -> None:
    for index, item in pending:
        if monitor is not None:
            monitor.on_start(index)
            start = time.perf_counter()
            raw = worker(item, *monitor.submit_args(index))
            monitor.on_result(index, raw, time.perf_counter() - start)
            report(index, raw)
        else:
            report(index, worker(item))


def _run_parallel(
    worker: Worker,
    pending: List[Tuple[int, object]],
    jobs: int,
    report: Callable[[int, object], None],
    monitor: Optional[_SweepMonitor] = None,
) -> bool:
    """Run pending items on a process pool; True if any serial fallback ran.

    Results are reported as they complete.  A broken pool (killed worker,
    ``BrokenProcessPool``) is rebuilt and the in-flight items re-dispatched;
    a crash only counts against an item when it is attributable (the item
    was alone in flight at break time) — co-resident siblings are requeued
    unpenalized and re-run one at a time until the culprit is isolated.
    With a monitor, an item whose worker crashes twice (attributed) is
    reported as a synthesized error result, and in-flight points are
    watched for stalls and ``point_timeout`` overruns (timed-out futures
    are abandoned and the point re-dispatched or errored).  Only when the
    pool cannot be (re)built
    do the unreported items re-run serially and the function return True.
    An exception raised by ``report`` itself (cache write failure,
    progress-callback bug) propagates to the caller instead of silently
    triggering a serial re-run.
    """
    items: Dict[int, object] = dict(pending)
    order = {index: position for position, (index, _) in enumerate(pending)}
    queue: List[int] = [index for index, _ in pending]
    try:
        pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=jobs)
    except Exception:
        _run_serial(worker, pending, report, monitor)
        return True

    futures: Dict = {}  # future -> (index, dispatch timestamp)
    abandoned: List = []  # timed-out futures, possibly still running
    completed: Set[int] = set()
    crashes = monitor.crashes if monitor is not None else {}
    # points co-resident with an unattributable pool break: requeued with
    # no crash strike, then run one at a time (alone in flight) so the
    # next break can be pinned on the point that actually caused it
    suspects: Set[int] = set()
    # unmonitored callers keep the historic rebuild-once budget; monitored
    # ones may rebuild per crash because the rebuild budget itself bounds
    # the suspect re-runs and per-point crash caps end attributed crashers
    rebuilds_left = 1 if monitor is None else 1 + 2 * len(pending)
    # monitored runs keep at most `jobs` futures in flight so a future's
    # dispatch timestamp approximates its start time (queue wait must not
    # count toward point_timeout); otherwise submit everything up front
    window = jobs if monitor is not None and monitor.watching else len(items)
    serial_rest = False

    def finish(index: int, raw: object, wall_s: float) -> None:
        suspects.discard(index)
        if monitor is not None:
            monitor.on_result(index, raw, wall_s)
        completed.add(index)
        report(index, raw)

    def submit(index: int) -> None:
        args = (items[index],)
        if monitor is not None:
            args += monitor.submit_args(index)
        future = pool.submit(worker, *args)
        futures[future] = (index, time.perf_counter())

    def handle_crash(index: int, attributed: bool) -> None:
        """This index's attempt died with the pool: requeue or give up.

        Only an ``attributed`` crash (the point was alone in flight at
        break time) earns a strike toward ``_MAX_CRASHES_PER_POINT``;
        collateral siblings are requeued unpenalized as suspects so a
        healthy point can never be errored by a crashing neighbor.
        """
        if attributed:
            crashes[index] = crashes.get(index, 0) + 1
            if monitor is not None and crashes[index] >= _MAX_CRASHES_PER_POINT:
                log.warning(
                    "sweep point index %d crashed its worker %d times; "
                    "recording as error", index, crashes[index],
                )
                finish(index, monitor.crash_result(index), 0.0)
                return
        # requeue isolated either way: a proven crasher must not smash
        # fresh siblings, an unattributed one must run alone so the next
        # break can be attributed
        suspects.add(index)
        if monitor is not None:
            monitor.on_retry(
                index, reason="worker-crash" if attributed else "pool-break"
            )
        queue.insert(0, index)

    def rebuild_pool() -> bool:
        nonlocal pool, rebuilds_left
        if rebuilds_left <= 0:
            return False
        rebuilds_left -= 1
        _abandon_pool(pool)
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
        except Exception:
            return False
        log.warning("worker pool broke; rebuilt, re-dispatching pending points")
        return True

    try:
        while queue or futures:
            # every worker burning an abandoned task would starve fresh
            # submissions: recycle the pool, requeue the never-started
            zombies = sum(1 for f in abandoned if not f.done())
            if zombies >= jobs:
                for future, (index, _since) in sorted(
                    futures.items(),
                    key=lambda kv: order[kv[1][0]],
                    reverse=True,
                ):
                    queue.insert(0, index)
                futures.clear()
                if not rebuild_pool():
                    serial_rest = True
                    break
                abandoned.clear()  # the zombies died with the old pool
                zombies = 0
            # remaining zombies still occupy workers: shrink the window
            # by their count so a fresh future never sits in the pool
            # queue with its dispatch clock counting toward point_timeout;
            # while suspects wait at the queue front, run one point at a
            # time (alone in flight) so the next break is attributable
            cur_window = 1 if suspects else max(1, window - zombies)
            # top up the submission window
            submit_failed: Optional[int] = None
            while queue and len(futures) < cur_window:
                index = queue.pop(0)
                if monitor is not None:
                    monitor.on_start(index)
                try:
                    submit(index)
                except Exception:
                    submit_failed = index
                    break
            if submit_failed is not None:
                queue.insert(0, submit_failed)
                if not rebuild_pool():
                    serial_rest = True
                    break
                continue
            if not futures:
                continue
            tick = _SweepMonitor.tick_s if (
                monitor is not None and monitor.watching
            ) else None
            finished, _ = wait(
                set(futures), timeout=tick, return_when=FIRST_COMPLETED
            )
            now = time.perf_counter()
            pool_broke = False
            crashed: List[int] = []
            for future in finished:
                index, since = futures.pop(future)
                try:
                    raw = future.result()
                except Exception:
                    pool_broke = True
                    crashed.append(index)
                    continue
                finish(index, raw, now - since)
            if pool_broke:
                # a break kills every in-flight sibling along with the
                # pool, so the crash is attributable to a specific point
                # only when that point was alone in flight (and no zombie
                # worker could have been the one that died)
                in_flight = crashed + [index for index, _ in futures.values()]
                futures.clear()
                sole = len(in_flight) == 1 and zombies == 0
                for index in sorted(
                    in_flight, key=lambda i: order[i], reverse=True
                ):
                    handle_crash(index, attributed=sole)
                if not rebuild_pool():
                    serial_rest = True
                    break
                continue
            if monitor is not None and monitor.watching:
                for future in list(futures):
                    index, since = futures[future]
                    elapsed = now - since
                    monitor.check_stall(index, elapsed)
                    if not monitor.timed_out(elapsed):
                        continue
                    del futures[future]
                    future.cancel()  # almost certainly running; best effort
                    abandoned.append(future)
                    if monitor.can_retry(index):
                        monitor.on_retry(index, reason="timeout", elapsed_s=elapsed)
                        queue.append(index)
                    else:
                        finish(index, monitor.timeout_result(index, elapsed), elapsed)
    finally:
        if pool is not None:
            if any(not future.done() for future in abandoned):
                _abandon_pool(pool)
            else:
                pool.shutdown(wait=True)
    if serial_rest:
        log.warning("process pool unusable; remaining points run serially")
        remaining = [
            (index, items[index])
            for index in sorted(set(items) - completed, key=lambda i: order[i])
        ]
        _run_serial(worker, remaining, report, monitor)
        return True
    return False


def parallel_map(
    worker: Worker,
    items: Sequence[object],
    jobs: int = 1,
    progress: Optional[Callable[[object, int, int], None]] = None,
) -> Tuple[List[object], bool]:
    """Map a picklable ``worker`` over ``items`` on the sweep worker pool.

    Returns ``(results, used_fallback)`` with results in input order.
    ``jobs <= 1`` runs serially; otherwise a ``ProcessPoolExecutor`` is used.
    A crashed worker process no longer aborts the fan-out: the pool is
    rebuilt once and the in-flight items are re-dispatched; only if it
    breaks again do the unfinished items re-run serially (where a worker
    exception propagates).  The worker must never raise — it should capture
    failures in its result record (see :data:`Worker`).  ``progress`` is
    invoked as ``(result, done_count, total)`` in completion order.
    """
    results: Dict[int, object] = {}

    def report(index: int, result: object) -> None:
        results[index] = result
        if progress is not None:
            progress(result, len(results), len(items))

    pending = list(enumerate(items))
    used_fallback = False
    effective_jobs = max(1, min(jobs, len(pending))) if pending else 1
    if pending:
        if effective_jobs > 1:
            used_fallback = _run_parallel(worker, pending, effective_jobs, report)
        else:
            _run_serial(worker, pending, report)
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
    """Run every point of ``spec``, honouring the cache and the worker pool.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (expanded here) or an explicit point sequence.
    jobs:
        Worker processes for uncached points; ``<= 1`` runs serially.
    cache:
        A :class:`ResultCache`, a directory path to open one in, or ``None``
        to disable caching.  Fresh results are written back to the cache.
    progress:
        Optional callback ``(outcome, done_count, total)`` invoked as each
        point resolves (cached points first, then completions in whatever
        order the pool finishes them).
    point_timeout:
        Hard per-point wall-time budget (parallel runs only): a point in
        flight longer than this is abandoned, re-dispatched up to
        ``max_retries`` times, then recorded as an error outcome — the
        sweep always accounts for every point instead of hanging.
    stall_factor:
        Straggler threshold: a point in flight longer than
        ``stall_factor x`` the rolling median of fresh point times emits a
        ``stall`` event and a warning (``None`` disables the check).
    max_retries:
        Re-dispatch budget per timed-out point.
    heartbeat_s:
        Worker heartbeat period for evented runs (``<= 0`` disables).

    When a :class:`repro.obs.EventBus` is active (see
    :func:`repro.obs.eventing`), the sweep streams live
    ``point_start``/``point_end``/``stall``/``retry`` events and workers
    append ``heartbeat``/``resource`` gauges; the roll-up lands in
    ``SweepResult.events_summary`` and on ``obs.counter`` metrics
    (``events.stalls`` / ``events.retries``) for the regression sentinel.
    """
    start = time.perf_counter()
    points = spec.expand() if isinstance(spec, SweepSpec) else [p.canonical() for p in spec]
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    tracer = obs.current_tracer()
    bus = obs.current_bus()
    monitor = _SweepMonitor(
        points,
        bus,
        point_timeout=point_timeout,
        stall_factor=stall_factor,
        max_retries=max_retries,
        heartbeat_s=heartbeat_s,
    )

    outcomes: Dict[int, PointOutcome] = {}
    finished = 0

    def report(index: int, outcome: PointOutcome) -> None:
        nonlocal finished
        if cache is not None and outcome.metrics is not None and not outcome.cached:
            telemetry = None
            if outcome.spans is not None:
                telemetry = {
                    "elapsed_s": round(outcome.elapsed_s, 6),
                    "span_summary": outcome.span_summary(),
                }
            cache.put(outcome.point, outcome.metrics, telemetry=telemetry)
        outcomes[index] = outcome
        finished += 1
        if progress is not None:
            progress(outcome, finished, len(points))

    def report_raw(index: int, raw: object) -> None:
        # the (picklable) _run_one result shape
        metrics, error, elapsed, telemetry = raw
        spans = None
        if telemetry is not None:
            spans = telemetry.get("spans")
            if tracer is not None and spans is not None:
                tracer.adopt(spans, telemetry.get("counters"))
        report(
            index, PointOutcome(points[index], metrics, error, False, elapsed, spans)
        )

    with obs.span("explore.sweep", points=len(points), jobs=jobs):
        pending: List[Tuple[int, SweepPoint]] = []
        hits = 0
        for index, point in enumerate(points):
            metrics = cache.get(point) if cache is not None else None
            if metrics is not None:
                hits += 1
                monitor.on_cached(index)
                report(index, PointOutcome(point, metrics, cached=True))
            else:
                pending.append((index, point))
        log.debug(
            "sweep: %d point(s), %d cached, %d to run",
            len(points), hits, len(pending),
        )

        used_fallback = False
        effective_jobs = max(1, min(jobs, len(pending))) if pending else 1
        worker = partial(
            _run_one,
            trace=tracer is not None,
            events=monitor.worker_events(parallel=effective_jobs > 1),
        )
        if pending:
            if effective_jobs > 1:
                used_fallback = _run_parallel(
                    worker, pending, effective_jobs, report_raw, monitor
                )
            else:
                _run_serial(worker, pending, report_raw, monitor)

    result = SweepResult(
        outcomes=[outcomes[i] for i in range(len(points))],
        jobs=effective_jobs,
        cache_hits=hits,
        cache_misses=len(pending),
        used_fallback=used_fallback,
        elapsed_s=time.perf_counter() - start,
    )
    if monitor.active:
        result.events_summary = monitor.build_summary(result, effective_jobs)
        # sentinel-visible drift gauges: only on monitored runs, so plain
        # runs' history records keep their historic counter set
        obs.counter("events.stalls", monitor.stalls)
        obs.counter("events.retries", monitor.retries)
        if bus is not None:
            bus.annotate(**result.events_summary)
    return result
