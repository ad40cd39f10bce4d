"""Live telemetry bus: event schema, heartbeats, stall/retry, robustness.

Covers the ``repro.obs.events`` v1 contract (schema validity, per-emitter
``seq`` monotonicity, the golden event-stream pin for a serial sweep), the
sweep engine's straggler machinery (``REPRO_POINT_HANG`` → ``stall`` →
``retry`` → completion, timeout exhaustion → errored-not-lost), worker
heartbeat liveness under ``jobs=2``, crashed-worker respawns, the serial
fallback, and the ``obs tail`` / ``obs events-check`` CLI surface.

Golden re-pin after an intentional event-shape change::

    REPRO_BLESS=1 PYTHONPATH=src python -m pytest tests/test_obs_events.py
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.api.flow import env_seconds
from repro.cli import main
from repro.explore.engine import (
    POINT_HANG_ENV,
    WorkerFailure,
    _dispatch,
    _SweepMonitor,
    parallel_map,
    run_sweep,
)
from repro.explore.io import sweep_to_json_obj
from repro.explore.spec import SweepSpec

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "obs"

_SPEC = SweepSpec(designs=("x2",), methods=("fa_aot", "wallace"))


def _pool_works() -> bool:
    """True when this platform can actually start worker processes."""
    return parallel_map(abs, [-1, -2], jobs=2) == ([1, 2], False)


needs_pool = pytest.mark.skipif(
    not _pool_works(), reason="platform cannot run process pools"
)


def _evented_sweep(**kwargs):
    """Run the tiny fixed sweep under an in-memory bus; return (sweep, events)."""
    bus = obs.EventBus()
    events = []
    bus.subscribe(events.append)
    with obs.eventing(bus):
        sweep = run_sweep(_SPEC, **kwargs)
    return sweep, events


class TestEventSchema:
    def test_emitted_event_is_valid(self):
        bus = obs.EventBus()
        event = bus.emit("heartbeat", elapsed_s=1.5, point="x2/fa_aot/cla")
        assert obs.validate_event_obj(event) == []
        assert event["schema"] == obs.EVENT_SCHEMA
        assert event["schema_version"] == obs.EVENT_SCHEMA_VERSION
        assert event["pid"] == os.getpid()

    def test_every_kind_validates(self):
        bus = obs.EventBus()
        for kind in obs.EVENT_KINDS:
            assert obs.validate_event_obj(bus.emit(kind)) == []

    def test_broken_events_are_flagged(self):
        assert obs.validate_event_obj([]) != []
        assert any(
            "kind" in p for p in obs.validate_event_obj(
                {"schema": obs.EVENT_SCHEMA, "schema_version": 1, "ts": 1.0,
                 "run_id": "abc", "pid": 1, "seq": 0, "kind": "nope",
                 "attrs": {}}
            )
        )
        assert any("seq" in p for p in obs.validate_event_obj(
            {"schema": obs.EVENT_SCHEMA, "schema_version": 1, "ts": 1.0,
             "run_id": "abc", "pid": 1, "seq": -4, "kind": "heartbeat",
             "attrs": {}}
        ))

    def test_seq_is_monotone_per_emitter(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat") for _ in range(5)]
        assert [e["seq"] for e in events] == list(range(5))
        assert obs.check_event_stream(events) == []

    def test_stream_check_catches_seq_regression(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat"), bus.emit("heartbeat")]
        events.append(dict(events[0]))  # replayed seq 0
        problems = obs.check_event_stream(events)
        assert any("monotone" in p for p in problems)

    def test_stream_check_catches_seq_gap(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat") for _ in range(4)]
        del events[2]  # a lost write: seq advanced but nothing recorded
        problems = obs.check_event_stream(events)
        assert any("gap" in p and "lost 1 event" in p for p in problems)

    def test_stream_check_requires_kinds(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat")]
        problems = obs.check_event_stream(events, require=["stall", "retry"])
        assert len(problems) == 2
        assert obs.check_event_stream(events, require=["heartbeat"]) == []

    def test_nonscalar_attrs_are_coerced(self):
        bus = obs.EventBus()
        event = bus.emit("run_start", benches=("a", "b"), obj=object())
        assert event["attrs"]["benches"] == ["a", "b"]
        assert isinstance(event["attrs"]["obj"], str)
        json.dumps(event)  # must be serializable


class TestEventBus:
    def test_file_stream_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        bus.emit("run_start", command="test")
        bus.emit("run_end", status="ok")
        bus.close()
        events, problems = obs.load_events(path)
        assert problems == []
        assert [e["kind"] for e in events] == ["run_start", "run_end"]
        assert obs.check_event_stream(events) == []

    def test_corrupt_lines_become_problems_not_exceptions(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        bus.emit("run_start")
        bus.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        events, problems = obs.load_events(path)
        assert len(events) == 1
        assert len(problems) == 1 and "line 2" in problems[0]

    def test_subscriber_errors_are_swallowed(self):
        bus = obs.EventBus()
        seen = []

        def broken(_event):
            raise RuntimeError("renderer bug")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        bus.emit("heartbeat")
        assert len(seen) == 1  # later subscribers still ran

    def test_eventing_installs_and_restores(self):
        assert obs.current_bus() is None
        bus = obs.EventBus()
        with obs.eventing(bus):
            assert obs.current_bus() is bus
        assert obs.current_bus() is None
        with obs.eventing(None):
            assert obs.current_bus() is None


class TestResourceGauges:
    def test_sample_has_the_gauge_fields(self):
        sample = obs.sample_resources()
        assert set(sample) == {"rss_bytes", "peak_rss_bytes", "cpu_s"}
        assert sample["cpu_s"] >= 0.0
        # on Linux both must resolve; elsewhere rss may fall back to peak
        if os.path.exists("/proc/self/statm"):
            assert sample["rss_bytes"] > 0

    def test_sampler_emits_resource_events(self):
        bus = obs.EventBus()
        fold = obs.EventFold()
        bus.subscribe(fold.handle)
        with obs.resource_sampling(bus, interval=0.02):
            deadline = time.time() + 2.0
            while fold.by_kind.get("resource", 0) < 2 and time.time() < deadline:
                time.sleep(0.02)
        assert fold.by_kind.get("resource", 0) >= 2


class TestEventFold:
    def test_folds_a_stream_into_the_sweep_summary(self):
        bus = obs.EventBus()
        fold = obs.EventFold()
        bus.subscribe(fold.handle)
        bus.emit("point_start", index=0, total=3, cached=True)
        bus.emit("point_end", index=0, ok=True, cached=True, elapsed_s=0.0)
        bus.emit("point_end", index=1, ok=True, cached=False, elapsed_s=0.5,
                 peak_rss_bytes=100)
        bus.emit("stall", index=2)
        bus.emit("retry", index=2, reason="timeout")
        bus.emit("retry", index=2, reason="worker-crash")
        bus.emit("point_end", index=2, ok=False, cached=False, elapsed_s=0.25,
                 reason="worker-crash", peak_rss_bytes=300)
        bus.emit("resource", rss_bytes=999, peak_rss_bytes=999)
        assert fold.total == 3
        assert (fold.done, fold.ok, fold.failed, fold.cached) == (3, 2, 1, 1)
        assert fold.by_kind["point_end"] == 3 and fold.by_kind["resource"] == 1
        assert fold.summary(wall_s=1.0, jobs=2) == {
            "points": 3,
            "cache_hits": 1,
            "cache_misses": 2,
            "stalls": 1,
            "retries": 2,
            "timeouts": 1,
            "worker_crashes": 2,
            "worker_utilization": 0.375,
            "peak_rss_bytes": 300,  # what points reported, not the parent
        }

    def test_abandoned_attempts_count_as_busy_time(self):
        # a timed-out attempt's time rides only on its retry event: it keeps
        # a worker busy but is no point time (stall median, ETA)
        fold = obs.EventFold()
        fold.handle({"kind": "retry", "attrs": {"index": 0, "reason": "timeout",
                                                "elapsed_s": 2.0}})
        fold.handle({"kind": "point_end", "attrs": {"index": 0, "ok": True,
                                                    "cached": False,
                                                    "elapsed_s": 0.05}})
        assert fold.durations == [0.05]
        summary = fold.summary(wall_s=2.06, jobs=2)
        assert summary["worker_utilization"] == round(2.05 / (2.06 * 2), 4)

    def test_events_check_counts_come_from_the_fold(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        for kind in ("run_start", "stall", "stall", "run_end"):
            bus.emit(kind)
        bus.close()
        assert main(["obs", "events-check", str(path)]) == 0
        assert "[run_end=1 run_start=1 stall=2]" in capsys.readouterr().out


class TestGoldenEventStream:
    def test_serial_sweep_event_stream_is_pinned(self):
        _sweep, events = _evented_sweep(heartbeat_s=0)
        deterministic = [
            {
                "kind": event["kind"],
                "attrs": {
                    key: event["attrs"][key]
                    for key in ("index", "point", "attempt", "total", "cached", "ok")
                    if key in event["attrs"]
                },
            }
            for event in events
            if event["kind"] in ("point_start", "point_end", "stall", "retry")
        ]
        content = "".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in deterministic
        )
        path = GOLDEN_DIR / "events_stream.jsonl"
        if os.environ.get("REPRO_BLESS"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        assert path.exists(), (
            f"missing golden file {path}; regenerate with REPRO_BLESS=1"
        )
        assert content == path.read_text(encoding="utf-8"), (
            "serial sweep event stream drifted; regenerate with REPRO_BLESS=1 "
            "if the change is intentional"
        )

    def test_stream_is_schema_valid(self):
        _sweep, events = _evented_sweep(heartbeat_s=0)
        assert obs.check_event_stream(events) == []


class TestSweepTelemetry:
    def test_unmonitored_sweep_has_no_events_summary(self):
        sweep = run_sweep(_SPEC)
        assert sweep.events_summary is None
        assert "events_summary" not in sweep_to_json_obj(sweep)

    def test_evented_sweep_has_events_summary(self):
        sweep, _events = _evented_sweep(heartbeat_s=0)
        summary = sweep.events_summary
        assert summary is not None
        assert summary["cache_hits"] == 0 and summary["cache_misses"] == 2
        assert summary["stalls"] == 0 and summary["retries"] == 0
        assert 0.0 < summary["worker_utilization"] <= 1.0
        assert sweep_to_json_obj(sweep)["events_summary"] == summary

    def test_summary_line_reports_hits_and_fresh_separately(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_sweep(_SPEC, cache=cache)
        assert "0 cached / 2 fresh" in first.summary()
        second = run_sweep(_SPEC, cache=cache)
        assert "2 cached / 0 fresh" in second.summary()
        assert second.cache_hits == 2 and second.cache_misses == 0

    def test_cached_points_emit_cached_events(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(_SPEC, cache=cache)
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        with obs.eventing(bus):
            sweep = run_sweep(_SPEC, cache=cache, heartbeat_s=0)
        assert sweep.cache_hits == 2
        ends = [e for e in events if e["kind"] == "point_end"]
        assert len(ends) == 2 and all(e["attrs"]["cached"] for e in ends)
        assert sweep.events_summary["cache_hits"] == 2

    def test_serial_heartbeats_flow_through_parent_bus(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=0.3")
        sweep, events = _evented_sweep(heartbeat_s=0.05)
        assert sweep.ok
        beats = [e for e in events if e["kind"] == "heartbeat"]
        assert beats, "serial hung point produced no heartbeats"
        assert all(e["pid"] == os.getpid() for e in beats)


    def test_timeout_without_bus_still_summarizes(self):
        assert obs.current_bus() is None
        sweep = run_sweep(_SPEC, point_timeout=30.0, heartbeat_s=0)
        summary = sweep.events_summary
        assert set(summary) - {"peak_rss_bytes"} == {
            "points", "cache_hits", "cache_misses", "stalls", "retries",
            "timeouts", "worker_crashes", "worker_utilization",
        }
        assert summary["points"] == 2 and summary["cache_misses"] == 2
        assert summary["retries"] == 0 and summary["timeouts"] == 0
        assert obs.current_bus() is None


class TestPointHangParsing:
    def test_parses_entries(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=1.5, 3=0.25")
        assert env_seconds(POINT_HANG_ENV, int) == {0: 1.5, 3: 0.25}

    def test_malformed_entries_ignored(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "garbage,1=2.0,=3")
        assert env_seconds(POINT_HANG_ENV, int) == {1: 2.0}

    def test_unset_means_empty(self, monkeypatch):
        monkeypatch.delenv(POINT_HANG_ENV, raising=False)
        assert env_seconds(POINT_HANG_ENV, int) == {}


@needs_pool
class TestParallelTelemetry:
    def test_worker_heartbeats_reach_the_shared_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=0.4,1=0.4")
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        with obs.eventing(bus):
            sweep = run_sweep(_SPEC, jobs=2, heartbeat_s=0.05)
        bus.close()
        assert sweep.ok
        events, problems = obs.load_events(path)
        assert problems == []
        assert obs.check_event_stream(events) == []
        beats = [e for e in events if e["kind"] == "heartbeat"]
        if not sweep.used_fallback:
            worker_pids = {e["pid"] for e in beats}
            assert beats and all(pid != os.getpid() for pid in worker_pids)
            resources = [e for e in events if e["kind"] == "resource"]
            assert resources, "heartbeating workers emitted no resource gauges"

    def test_hang_produces_stall_retry_and_completion(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=5")
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        with obs.eventing(bus):
            sweep = run_sweep(_SPEC, jobs=2, point_timeout=0.75, heartbeat_s=0)
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial; no straggler machinery")
        assert sweep.ok, [o.error for o in sweep.failures]
        assert len(sweep.outcomes) == 2  # every point accounted for
        kinds = [e["kind"] for e in events]
        assert "stall" in kinds and "retry" in kinds
        assert obs.check_event_stream(events, require=["stall", "retry"]) == []
        assert sweep.events_summary["retries"] == 1
        assert sweep.events_summary["timeouts"] == 1
        retry = next(e for e in events if e["kind"] == "retry")
        assert retry["attrs"]["reason"] == "timeout"
        assert retry["attrs"]["index"] == 0

    def test_exhausted_retries_record_error_not_hang(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=30")
        import time as _time

        start = _time.perf_counter()
        bus = obs.EventBus()
        with obs.eventing(bus):
            sweep = run_sweep(
                _SPEC, jobs=2, point_timeout=0.5, max_retries=0, heartbeat_s=0
            )
        wall = _time.perf_counter() - start
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial; no straggler machinery")
        assert wall < 20, "abandoning a hung worker must not wait it out"
        assert len(sweep.outcomes) == 2
        assert len(sweep.failures) == 1
        assert "point_timeout" in sweep.failures[0].error
        assert sweep.events_summary["timeouts"] == 1
        assert sweep.events_summary["retries"] == 0


    def test_in_memory_bus_gives_workers_no_bus(self, tmp_path, monkeypatch):
        from repro.explore import engine

        settings = []

        class SpyWorker(engine._Worker):
            def __init__(self, fn, trace, events):
                settings.append(events)
                super().__init__(fn, trace, events)

        monkeypatch.setattr(engine, "_Worker", SpyWorker)
        sweep, _events = _evented_sweep(jobs=2, heartbeat_s=0.05)
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial")
        assert settings and all(events is None for events in settings)
        assert isinstance(sweep.events_summary["peak_rss_bytes"], int)
        # control: a run streaming to a file does hand workers its stream
        settings.clear()
        bus = obs.EventBus(path=tmp_path / "events.jsonl")
        with obs.eventing(bus):
            run_sweep(_SPEC, jobs=2, heartbeat_s=0)
        bus.close()
        assert settings and all(
            events == {"path": bus.path, "run_id": bus.run_id} for events in settings
        )

    def test_renderer_agrees_with_sweep_summary(self, tmp_path, monkeypatch):
        """The live table and ``events_summary`` are one fold of one stream."""
        import io

        spec = SweepSpec(designs=("x2",), methods=("fa_aot", "wallace", "dadda"))
        cache = tmp_path / "cache"
        run_sweep(spec.expand()[2:], cache=cache)  # one cache hit
        monkeypatch.setenv(POINT_HANG_ENV, "0=5")
        bus = obs.EventBus()
        renderer = obs.ProgressRenderer(stream=io.StringIO(), live=True)
        bus.subscribe(renderer.handle)
        with obs.eventing(bus):
            sweep = run_sweep(
                spec, jobs=2, cache=cache, point_timeout=0.75, heartbeat_s=0
            )
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial; no straggler machinery")
        summary = sweep.events_summary
        assert summary["retries"] == 1 and summary["cache_hits"] == 1
        assert (renderer.stalls, renderer.retries, renderer.failed, renderer.cached) == (
            summary["stalls"], summary["retries"], len(sweep.failures),
            summary["cache_hits"],
        )


def _crash_once_worker(item):
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"crashed-{value}")
    if value == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)  # hard worker death: EOF on its pipe in the parent
    return value * 10


def _always_crash_worker(item, attempt):
    if item == 1:
        os._exit(1)
    return item * 10


def _slow_or_crash_worker(item, attempt):
    if item == 1:
        os._exit(1)
    time.sleep(0.4)  # keep healthy siblings in flight across the crash
    return item * 10


_TEST_PID = os.getpid()


def _crash_in_worker(value):
    if value == 1 and os.getpid() != _TEST_PID:
        os._exit(1)
    return value


def _raise_on_one(value):
    if value == 1:
        raise ValueError("bad item")
    return value


def _collect(got):
    """A dispatcher ``report`` that stores each item's result in ``got``."""
    return lambda index, result, _elapsed, _spans: got.__setitem__(index, result)


#: ``parallel_map`` with an item that always kills its worker, in a child
#: interpreter: if the crash reached the caller, only that child would die
_CRASH_CALLER = """
import json, os
from repro.explore.engine import parallel_map

def work(value):
    if value == 1:
        os._exit(7)
    return value * 10

results, used_fallback = parallel_map(work, [0, 1, 2, 3], jobs=2)
print(json.dumps({
    "results": [r if isinstance(r, int) else {"error": r.error} for r in results],
    "used_fallback": used_fallback,
}))
"""


@needs_pool
class TestCrashedWorkerRecovery:
    def test_parallel_map_survives_one_crash(self, tmp_path):
        items = [(value, str(tmp_path)) for value in range(6)]
        results, used_fallback = parallel_map(_crash_once_worker, items, jobs=2)
        assert results == [0, 10, 20, 30, 40, 50]
        assert not used_fallback, "one crash should respawn a worker, not fall back"

    def test_repeated_crash_does_not_kill_the_caller(self):
        src = pathlib.Path(__file__).parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_CALLER],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        results = out["results"]
        assert [results[0], results[2], results[3]] == [0, 20, 30]
        assert "crashed" in results[1]["error"]
        assert out["used_fallback"] is False

    def test_raising_worker_is_an_item_error(self):
        results, used_fallback = parallel_map(_raise_on_one, [0, 1, 2], jobs=2)
        assert results[0] == 0 and results[2] == 2
        assert results[1] == WorkerFailure("ValueError: bad item")
        assert not used_fallback

    def test_crashed_item_never_runs_in_the_caller(self, monkeypatch):
        """Respawning the crashed worker fails: the rest runs in the caller,
        except the item that crashed, which is reported as an error."""
        real_start = multiprocessing.Process.start
        started = []

        def start_two(process):
            if len(started) == 2:
                raise OSError("process creation refused")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", start_two)
        results, used_fallback = parallel_map(_crash_in_worker, [0, 1, 2], jobs=2)
        assert used_fallback is True
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], WorkerFailure) and "crashed" in results[1].error

    def test_repeated_crash_records_error_result(self):
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        monitor = _SweepMonitor(["x2/fa_aot", "x2/wallace"], bus)
        got = {}
        used_fallback = _dispatch(
            _always_crash_worker, list(enumerate([0, 1])), 2, _collect(got), monitor
        )
        assert not used_fallback
        assert got[0] == 0
        assert isinstance(got[1], WorkerFailure) and "crashed" in got[1].error
        retries = [e["attrs"]["reason"] for e in events if e["kind"] == "retry"]
        assert retries == ["worker-crash"]
        assert monitor.crashes[1] == 2  # the first attempt and its one retry
        # the healthy sibling never accumulates crash strikes of its own
        assert monitor.crashes.get(0, 0) == 0

    def test_crash_strikes_never_hit_coresident_siblings(self):
        """A doubly-crashing point must not error out healthy points that
        were in flight on other workers when it crashed."""
        monitor = _SweepMonitor(["a", "b", "c"], bus=None, point_timeout=30.0)
        got = {}
        used_fallback = _dispatch(
            _slow_or_crash_worker, list(enumerate([0, 1, 2])), 3, _collect(got), monitor
        )
        assert not used_fallback
        assert got[0] == 0 and got[2] == 20
        assert isinstance(got[1], WorkerFailure) and "crashed" in got[1].error
        assert monitor.crashes.get(0, 0) == 0
        assert monitor.crashes.get(2, 0) == 0
        assert monitor.crashes[1] == 2


class TestSerialFallback:
    """Workers that cannot be started: the rest runs in the caller."""

    @pytest.fixture(autouse=True)
    def _no_processes(self, monkeypatch):
        def refuse(_process):
            raise OSError("process creation refused")

        monkeypatch.setattr(multiprocessing.Process, "start", refuse)

    def test_run_sweep_falls_back(self):
        serial = run_sweep(_SPEC, jobs=1)
        fallback = run_sweep(_SPEC, jobs=2)
        assert fallback.used_fallback is True
        assert "serial-fallback" in fallback.summary()
        assert fallback.records == serial.records
        assert not serial.used_fallback

    def test_parallel_map_falls_back(self):
        serial = parallel_map(abs, [-3, -1, -2], jobs=1)
        assert serial == ([3, 1, 2], False)
        assert parallel_map(abs, [-3, -1, -2], jobs=2) == ([3, 1, 2], True)


class TestEventsCli:
    def _make_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        bus.emit("run_start", command="test")
        bus.emit("stall", index=0, point="x2/fa_aot/cla")
        bus.emit("retry", index=0, reason="timeout")
        bus.emit("run_end", status="ok")
        bus.close()
        return path

    def test_events_check_passes_valid_stream(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        code = main(
            ["obs", "events-check", str(path), "--require", "stall,retry"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_events_check_fails_on_missing_kind(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        code = main(["obs", "events-check", str(path), "--require", "heartbeat"])
        assert code == 1
        assert "heartbeat" in capsys.readouterr().out

    def test_events_check_fails_on_corrupt_stream(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        assert main(["obs", "events-check", str(path)]) == 1

    def test_tail_pretty_prints(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        assert main(["obs", "tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stall" in out and "reason=timeout" in out

    def test_tail_kind_filter(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        assert main(["obs", "tail", str(path), "--kinds", "retry"]) == 0
        out = capsys.readouterr().out
        assert "retry" in out and "run_start" not in out

    def test_explore_events_flag_writes_stream(self, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        code = main([
            "explore", "--designs", "x2", "--methods", "fa_aot",
            "--events", str(events_dir),
        ])
        assert code == 0
        events, problems = obs.load_events(events_dir / "events.jsonl")
        assert problems == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "point_end" in kinds
        assert obs.check_event_stream(events) == []

    def test_check_trace_tool_validates_events(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tools"))
        try:
            import check_trace
        finally:
            sys.path.pop(0)
        path = self._make_stream(tmp_path)
        assert check_trace.main(["--events", str(path)]) == 0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "wrong"}\n')
        assert check_trace.main(["--events", str(path)]) == 1


class TestProgressRenderer:
    def _drive(self, renderer, bus):
        bus.subscribe(renderer.handle)
        bus.emit("point_start", index=0, point="a", attempt=0, total=2, cached=False)
        bus.emit("point_end", index=0, point="a", attempt=0, ok=True,
                 cached=False, elapsed_s=0.5)
        bus.emit("point_start", index=1, point="b", attempt=0, total=2, cached=False)
        bus.emit("stall", index=1, point="b", attempt=0)
        bus.emit("point_end", index=1, point="b", attempt=0, ok=False,
                 cached=False, elapsed_s=2.0)

    def test_folds_events_into_state(self):
        import io

        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream=stream, live=True)
        bus = obs.EventBus()
        self._drive(renderer, bus)
        assert renderer.done == 2 and renderer.ok == 1 and renderer.failed == 1
        assert renderer.stalls == 1
        assert renderer.median_s() == pytest.approx(1.25)
        line = renderer.status_line()
        assert "[2/2]" in line and "stalls=1" in line
        assert "\r" in stream.getvalue()

    def test_log_record_starts_on_a_clean_line(self, monkeypatch):
        import io

        stream = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stream)
        obs.configure_logging("info")
        renderer = obs.ProgressRenderer(stream=stream, live=True)
        bus = obs.EventBus()
        bus.subscribe(renderer.handle)
        bus.emit("run_start", command="explore")
        status = renderer.status_line()
        obs.get_logger("explore").info("streaming telemetry events to x")
        blank = "\r" + " " * len(status) + "\r"
        assert stream.getvalue() == (
            "\r" + status + blank
            + "streaming telemetry events to x\n" + "\r" + status
        )
        bus.emit("run_end", status="ok")
        obs.get_logger("explore").info("after the run")
        assert stream.getvalue().endswith(blank + "after the run\n")

    def test_run_end_prints_summary_table(self):
        import io

        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream=stream, live=True)
        bus = obs.EventBus()
        self._drive(renderer, bus)
        bus.emit("run_end", status="ok")
        text = stream.getvalue()
        assert "live telemetry" in text
        assert "stalls" in text
