"""Tests for the run-history store, regression sentinel and reporting layer.

Covers the :class:`repro.obs.HistoryStore` contract (append/iterate,
corrupt-line recovery, compaction, concurrent appends, the old segmented
layout), the :class:`RunRecorder` grouping-key rules, the sentinel's typed
findings and
threshold edge cases (host-speed normalization, the ``min_wall_s`` floor,
QoR exact-int vs float-band semantics), the flamegraph exporter (golden
file), the dashboard generator (self-contained HTML with every trend
series), the ``repro obs`` CLI family end to end, and the partial-telemetry
guarantees of the sweep and verify workers.
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
from html.parser import HTMLParser

import pytest

from repro import obs
from repro.api import Flow, FlowConfig
from repro.api.flow import STAGE_DELAY_ENV
from repro.cli import main
from repro.explore.engine import run_sweep
from repro.explore.spec import SweepSpec
from repro.obs.history import HISTORY_ENV, qor_entry, qor_label
from repro.verify.fuzz import check_point, run_fuzz
from repro.verify.metamorphic import check_property, run_metamorphic

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "obs"

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Tests assume tracing is off unless they install a tracer."""
    assert obs.current_tracer() is None
    yield
    assert obs.current_tracer() is None


@pytest.fixture(autouse=True)
def _no_ambient_history(monkeypatch):
    """Tests assume no history store unless they opt in."""
    monkeypatch.delenv(HISTORY_ENV, raising=False)


def make_record(
    key="K1",
    status="ok",
    wall_s=4.1,
    cells=100,
    delay=1.5,
    slow=0.1,
    counters=None,
    span_scale=1.0,
):
    """One synthetic, fully valid history record for sentinel tests."""
    return obs.build_record(
        command="synth",
        key=key,
        status=status,
        exit_code=0 if status == "ok" else 1,
        wall_s=wall_s,
        qor={
            "sos:fa_aot:cla:generic_035:O2": {
                "cell_count": cells,
                "fa_count": 10,
                "ha_count": 5,
                "delay_ns": delay,
                "area": 200.0,
                "total_energy": 3.0,
                "tree_energy": 1.0,
            }
        },
        span_summary={
            "flow.frontend": {"count": 1, "total_s": 1.0 * span_scale},
            "flow.reduce": {"count": 1, "total_s": 1.0 * span_scale},
            "flow.analyze": {"count": 1, "total_s": 1.0 * span_scale},
            "flow.run": {"count": 1, "total_s": 1.0 * span_scale},
            "flow.optimize": {"count": 1, "total_s": slow * span_scale},
        },
        counters=counters if counters is not None else {"opt.rewrites": 50.0},
        manifest={"tool_version": "test"},
    )


def _append_records(root, count):
    """Append ``count`` fresh records to the store at ``root`` (a child
    process of the concurrent-append test)."""
    store = obs.HistoryStore(root)
    for _ in range(count):
        store.append(make_record())


class TestHistoryStore:
    def test_append_iterate_roundtrip(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        ids = [store.append(make_record()) for _ in range(3)]
        records = store.records()
        assert [r["run_id"] for r in records] == ids
        assert len(set(ids)) == 3
        assert store.check() == []

    def test_key_filtering(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        store.append(make_record(key="A"))
        store.append(make_record(key="B"))
        store.append(make_record(key="A"))
        assert store.keys() == ["A", "B"]
        assert len(store.records(key="A")) == 2
        assert len(store.records(command="synth")) == 3
        assert store.records(command="explore") == []

    def test_append_rejects_invalid_record(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        with pytest.raises(ValueError, match="missing key"):
            store.append({"schema": "repro.obs.history.record"})
        with pytest.raises(ValueError, match="status"):
            record = make_record()
            record["status"] = "partial"
            store.append(record)

    def test_corrupt_line_skipped_and_flagged(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        for _ in range(3):
            store.append(make_record())
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("{truncated garba\n")
        # reads survive the damage, reporting only the valid records
        assert len(store.records()) == 3
        problems = store.check()
        assert any("corrupt" in p for p in problems)

    def test_compact_drops_corruption_rebuilds_index(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        for _ in range(5):
            store.append(make_record())
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        summary = store.compact()
        assert summary["records"] == 5
        assert summary["dropped"] == 1
        assert store.check() == []
        assert len(store.records()) == 5

    def test_concurrent_appends_keep_the_store_consistent(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        workers = [
            multiprocessing.Process(target=_append_records, args=(store.root, 100))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert store.check() == []
        records = store.records()
        assert len(records) == 200
        assert len({r["run_id"] for r in records}) == 200
        assert sorted(os.listdir(store.root)) == ["history.jsonl"]

    def test_old_segmented_layout_is_not_an_empty_store(self, tmp_path):
        root = tmp_path / "h"
        (root / "segments").mkdir(parents=True)
        record = json.dumps(make_record(), sort_keys=True)
        (root / "segments" / "seg-000001.jsonl").write_text(
            record + "\n", encoding="utf-8"
        )
        store = obs.HistoryStore(root)
        migrate = f"cat {root}/segments/seg-*.jsonl > {root}/history.jsonl"
        assert len(store.check()) == 1 and migrate in store.check()[0]
        for read in (store.records, store.keys, store.compact):
            with pytest.raises(ValueError, match="old segmented"):
                read()
        with pytest.raises(ValueError, match="old segmented"):
            store.append(make_record())
        with pytest.raises(SystemExit, match="old segmented"):
            main(["obs", "check", "--history", str(root)])
        # the one-line migration yields a healthy store
        store.path.write_text(record + "\n", encoding="utf-8")
        assert store.check() == [] and len(store.records()) == 1

    def test_empty_store(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "nothing")
        assert store.records() == []
        assert store.keys() == []
        assert store.check() == [f"{store.root}: not a directory"]


class TestRunRecorder:
    def test_single_key_part_is_the_group_key(self):
        recorder = obs.RunRecorder("synth")
        recorder.add_key("iir:abc123")
        recorder.add_key("iir:abc123")
        assert recorder.group_key() == "iir:abc123"

    def test_many_parts_digest_stably(self):
        a = obs.RunRecorder("explore")
        for part in ("p1", "p2", "p3"):
            a.add_key(part)
        b = obs.RunRecorder("explore")
        for part in ("p3", "p1", "p2", "p1"):
            b.add_key(part)
        # same part set, any order/multiplicity -> same group
        assert a.group_key() == b.group_key()
        assert a.group_key().startswith("explore:")

    def test_qor_label_collision_gets_suffix(self):
        recorder = obs.RunRecorder("explore")
        base = {
            "design_name": "iir", "method": "fa_aot", "final_adder": "cla",
            "library_name": "generic_035", "opt_level": 0, "cell_count": 10,
        }
        recorder.add_qor(base)
        recorder.add_qor(dict(base, cell_count=20))
        recorder.add_qor(dict(base))  # identical entry: no duplicate
        labels = sorted(recorder.qor)
        assert len(labels) == 2
        assert labels[1].endswith("#2")

    def test_build_produces_valid_record(self):
        recorder = obs.RunRecorder("synth")
        recorder.add_key("k")
        recorder.add_extra(note="hello")
        record = recorder.build(status="ok", exit_code=0, wall_s=1.0)
        assert obs.validate_record(record) == []
        assert record["extra"] == {"note": "hello"}


class TestSentinel:
    def test_identical_runs_no_findings(self):
        base = obs.select_baseline([make_record(), make_record()])
        findings = obs.diff_records(make_record(), base)
        assert findings == []

    def test_planted_slowdown_flagged(self):
        base = obs.select_baseline([make_record(), make_record()])
        findings = obs.diff_records(make_record(slow=1.1), base)
        drifted = [f for f in findings if f["kind"] == "walltime_drift"]
        assert len(drifted) == 1
        assert drifted[0]["subject"] == "flow.optimize"
        assert drifted[0]["severity"] == "fail"

    def test_uniformly_slower_host_not_flagged(self):
        """Every span x3 = a slow machine, not a regression."""
        base = obs.select_baseline([make_record(), make_record()])
        findings = obs.diff_records(make_record(span_scale=3.0), base)
        assert [f for f in findings if f["kind"] == "walltime_drift"] == []

    def test_slow_stage_dominating_the_run_flagged(self):
        """A planted delay that dwarfs a fast flow also lands in the
        enclosing flow.run span; it must not pass as a slower host."""
        def record(optimize_s):
            rec = make_record()
            rec["span_summary"] = {
                "flow.frontend": {"count": 1, "total_s": 0.001},
                "flow.reduce": {"count": 1, "total_s": 0.002},
                "flow.analyze": {"count": 1, "total_s": 0.002},
                "opt.cse": {"count": 1, "total_s": 0.002},
                "flow.optimize": {"count": 1, "total_s": optimize_s},
                "flow.run": {"count": 1, "total_s": optimize_s + 0.01},
            }
            return rec

        base = obs.select_baseline([record(0.05), record(0.05)])
        findings = obs.diff_records(record(1.05), base)
        drifted = {f["subject"] for f in obs.gating_findings(findings)}
        assert drifted == {"flow.optimize", "flow.run"}

    def test_sub_floor_spans_ignored(self):
        """A 4x blowup of a 1ms span is jitter, not a regression."""
        slow = make_record()
        slow["span_summary"]["tiny"] = {"count": 1, "total_s": 0.004}
        base_rec = make_record()
        base_rec["span_summary"]["tiny"] = {"count": 1, "total_s": 0.001}
        base = obs.select_baseline([base_rec, base_rec])
        findings = obs.diff_records(slow, base)
        assert [f for f in findings if f["subject"] == "tiny"] == []

    def test_speedup_reported_as_info_only(self):
        base = obs.select_baseline([make_record(slow=1.1), make_record(slow=1.1)])
        findings = obs.diff_records(make_record(slow=0.1), base)
        speedups = [f for f in findings if f["kind"] == "walltime_drift"]
        assert speedups and all(f["severity"] == "info" for f in speedups)
        assert obs.gating_findings(findings) == []

    def test_qor_int_drift_is_exact(self):
        base = obs.select_baseline([make_record(cells=100)])
        findings = obs.diff_records(make_record(cells=101), base)
        assert any(
            f["kind"] == "qor_drift" and f["subject"].endswith("cell_count")
            and f["severity"] == "fail"
            for f in findings
        )

    def test_qor_float_band(self):
        base = obs.select_baseline([make_record(delay=1.5)])
        # 1% drift: inside the default 2% band
        assert obs.diff_records(make_record(delay=1.515), base) == []
        # 3% drift: outside
        findings = obs.diff_records(make_record(delay=1.545), base)
        assert any(f["subject"].endswith("delay_ns") for f in findings)
        # widened tolerance swallows it
        wide = obs.Thresholds(qor_rel_tol=0.10)
        assert obs.diff_records(make_record(delay=1.545), base, wide) == []

    def test_new_and_missing_span_warn(self):
        current = make_record()
        current["span_summary"]["flow.map"] = {"count": 1, "total_s": 0.2}
        del current["span_summary"]["flow.reduce"]
        base = obs.select_baseline([make_record()])
        kinds = {(f["kind"], f["subject"]) for f in obs.diff_records(current, base)}
        assert ("new_span", "flow.map") in kinds
        assert ("missing_span", "flow.reduce") in kinds

    def test_counter_anomaly_thresholds(self):
        base = obs.select_baseline([make_record(counters={"opt.rewrites": 100.0})])
        ok = make_record(counters={"opt.rewrites": 120.0})
        assert obs.diff_records(ok, base) == []
        bad = make_record(counters={"opt.rewrites": 150.0})
        findings = obs.diff_records(bad, base)
        assert any(f["kind"] == "counter_anomaly" and f["severity"] == "fail"
                   for f in findings)
        # a zero baseline makes any change an anomaly
        zero_base = obs.select_baseline([make_record(counters={"c": 0.0})])
        assert any(
            f["kind"] == "counter_anomaly"
            for f in obs.diff_records(make_record(counters={"c": 1.0}), zero_base)
        )

    def test_failed_run_is_a_status_finding(self):
        base = obs.select_baseline([make_record()])
        findings = obs.diff_records(make_record(status="error"), base)
        assert any(f["kind"] == "status_change" and f["severity"] == "fail"
                   for f in findings)

    def test_baseline_median_damps_outliers(self):
        records = [make_record(slow=0.1) for _ in range(4)]
        records.insert(2, make_record(slow=9.0))  # one wild outlier
        base = obs.select_baseline(records, last_n=5)
        assert base["span_summary"]["flow.optimize"]["total_s"] == pytest.approx(0.1)

    def test_baseline_skips_error_runs_and_respects_last_n(self):
        records = [
            make_record(cells=50),
            make_record(cells=90, status="error"),
            make_record(cells=100),
            make_record(cells=100),
        ]
        base = obs.select_baseline(records, last_n=2)
        # last_n=2 over ok runs only -> the two cells=100 records
        entry = next(iter(base["qor"].values()))
        assert entry["cell_count"] == 100
        assert obs.select_baseline([make_record(status="error")]) is None

    def test_check_history_first_run_passes(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        store.append(make_record())
        result = obs.check_history(store)
        assert result["ok"] is True
        assert result["baseline"] is None

    def test_check_history_empty_store(self, tmp_path):
        result = obs.check_history(obs.HistoryStore(tmp_path / "h"))
        assert result["ok"] is True
        assert result["run_id"] is None

    def test_diff_output_deterministic(self):
        base = obs.select_baseline([make_record()])
        current = make_record(cells=110, slow=1.1, status="error",
                              counters={"other": 1.0})
        first = obs.diff_records(current, base)
        second = obs.diff_records(current, base)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert obs.render_findings(first) == obs.render_findings(second)
        # fixed kind grouping: status, qor, spans, counters
        kinds = [f["kind"] for f in first]
        assert kinds[0] == "status_change"
        assert kinds.index("qor_drift") < kinds.index("walltime_drift")


class TestFlamegraph:
    SPANS = [
        {"id": 0, "parent": None, "name": "flow.run", "ts": 0.0, "dur": 0.010,
         "pid": 1, "attrs": {}},
        {"id": 1, "parent": 0, "name": "flow.frontend", "ts": 0.0, "dur": 0.004,
         "pid": 1, "attrs": {}},
        {"id": 2, "parent": 0, "name": "flow.optimize", "ts": 0.004, "dur": 0.005,
         "pid": 1, "attrs": {}},
        {"id": 3, "parent": 2, "name": "opt.pass.cse", "ts": 0.004, "dur": 0.002,
         "pid": 1, "attrs": {}},
    ]

    def test_self_time_math(self):
        lines = obs.collapsed_stacks(self.SPANS)
        assert lines == [
            "flow.run 1000",
            "flow.run;flow.frontend 4000",
            "flow.run;flow.optimize 3000",
            "flow.run;flow.optimize;opt.pass.cse 2000",
        ]

    def test_children_exceeding_parent_clamp_to_zero(self):
        spans = [
            {"id": 0, "parent": None, "name": "p", "ts": 0.0, "dur": 0.001,
             "pid": 1, "attrs": {}},
            {"id": 1, "parent": 0, "name": "c", "ts": 0.0, "dur": 0.002,
             "pid": 1, "attrs": {}},
        ]
        lines = obs.collapsed_stacks(spans)
        # parent self time clamps to 0 and is dropped, child keeps its own
        assert lines == ["p;c 2000"]

    def test_golden_collapsed_file(self):
        content = "\n".join(obs.collapsed_stacks(self.SPANS)) + "\n"
        path = GOLDEN_DIR / "flame.collapsed"
        if os.environ.get("REPRO_BLESS"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        assert path.exists(), (
            f"missing golden file {path}; regenerate with "
            f"REPRO_BLESS=1 python -m pytest {__file__}"
        )
        assert content == path.read_text(encoding="utf-8"), (
            "collapsed-stack format drifted; if intentional, regenerate "
            "with REPRO_BLESS=1"
        )

    def test_write_flamegraph(self, tmp_path):
        path = obs.write_flamegraph(self.SPANS, tmp_path / "f.collapsed")
        assert path.read_text(encoding="utf-8").startswith("flow.run 1000\n")

    def test_spans_from_trace_roundtrip(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            with obs.span("root"):
                with obs.span("mid"):
                    with obs.span("leaf"):
                        time.sleep(0.002)
        rebuilt = obs.spans_from_trace_obj(obs.trace_obj(tracer))
        by_id = {s["id"]: s for s in rebuilt}
        parents = {
            s["name"]: (by_id[s["parent"]]["name"] if s["parent"] is not None else None)
            for s in rebuilt
        }
        assert parents == {"root": None, "mid": "root", "leaf": "mid"}

    def test_spans_from_trace_rejects_garbage(self):
        with pytest.raises(ValueError, match="traceEvents"):
            obs.spans_from_trace_obj({"nope": 1})

    def test_real_flow_stacks(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig(opt_level=2)).run("x2")
        stacks = [line.rsplit(" ", 1)[0] for line in obs.collapsed_stacks(tracer.spans)]
        assert any(s.startswith("flow.run;flow.optimize") for s in stacks)


class _DashboardParser(HTMLParser):
    """Collects tags and external-reference attributes from the dashboard."""

    def __init__(self):
        super().__init__()
        self.tags = []
        self.external = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        for name, value in attrs:
            if name in ("src", "href") or (
                value and value.startswith(("http://", "https://", "//"))
            ):
                self.external.append((tag, name, value))


class TestDashboard:
    def _store(self, tmp_path):
        store = obs.HistoryStore(tmp_path / "h")
        store.append(make_record(key="A", cells=100))
        store.append(make_record(key="A", cells=102))
        store.append(make_record(key="A", status="error"))
        store.append(make_record(key="B"))
        return store

    def test_self_contained_html_with_all_series(self, tmp_path):
        html_text = obs.render_dashboard(self._store(tmp_path))
        parser = _DashboardParser()
        parser.feed(html_text)
        assert html_text.startswith("<!DOCTYPE html>")
        assert parser.external == []  # no scripts, stylesheets or links
        assert parser.tags.count("svg") >= 2  # QoR + latency charts per key
        # every QoR metric with data gets a chart heading
        for metric in ("cell_count", "delay_ns", "area", "total_energy"):
            assert metric in html_text
        # every span series is drawn
        for name in ("flow.run", "flow.optimize", "flow.frontend"):
            assert name in html_text
        # both keys sectioned, error status visible in the run table
        assert "key <code>A</code>" in html_text
        assert "key <code>B</code>" in html_text
        assert "<td>error</td>" in html_text

    def test_single_key_restriction(self, tmp_path):
        html_text = obs.render_dashboard(self._store(tmp_path), key="B")
        assert "key <code>B</code>" in html_text
        assert "key <code>A</code>" not in html_text

    def test_empty_store_renders(self, tmp_path):
        html_text = obs.render_dashboard(obs.HistoryStore(tmp_path / "none"))
        assert "empty history store" in html_text

    def test_write_dashboard(self, tmp_path):
        path = obs.write_dashboard(self._store(tmp_path), tmp_path / "dash.html")
        assert path.stat().st_size > 1000

    def test_deterministic_given_records(self, tmp_path):
        store = self._store(tmp_path)
        assert obs.render_dashboard(store) == obs.render_dashboard(store)


class TestCLIHistory:
    def _synth(self, history, extra=()):
        return main(
            ["synth", "--design", "x2", "--history", str(history),
             "--log-level", "error", *extra]
        )

    def test_two_runs_then_check_passes(self, tmp_path, capsys):
        history = tmp_path / "h"
        assert self._synth(history) == 0
        assert self._synth(history) == 0
        store = obs.HistoryStore(history)
        records = store.records()
        assert len(records) == 2
        assert records[0]["key"] == records[1]["key"]
        assert records[0]["qor"]  # QoR metrics joined in
        assert records[0]["span_summary"]  # --history implies span collection
        assert records[0]["manifest"]["config_cache_key"]
        assert store.check() == []
        assert main(["obs", "check", "--history", str(history)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_planted_slowdown_fails_check(self, tmp_path, monkeypatch, capsys):
        history = tmp_path / "h"
        assert self._synth(history) == 0
        assert self._synth(history) == 0
        monkeypatch.setenv(STAGE_DELAY_ENV, "optimize=0.4")
        assert self._synth(history) == 0
        monkeypatch.delenv(STAGE_DELAY_ENV)
        assert main(["obs", "check", "--history", str(history)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "flow.optimize" in out

    def test_history_env_variable(self, tmp_path, monkeypatch):
        history = tmp_path / "h"
        monkeypatch.setenv(HISTORY_ENV, str(history))
        assert main(["synth", "--design", "x2", "--log-level", "error"]) == 0
        assert len(obs.HistoryStore(history).records()) == 1

    def test_failed_run_recorded_with_error_status(self, tmp_path):
        history = tmp_path / "h"
        with pytest.raises(OSError):
            self._synth(
                history,
                extra=("--verilog", str(tmp_path / "no" / "such" / "dir" / "x.v")),
            )
        records = obs.HistoryStore(history).records()
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert records[0]["exit_code"] == 1
        # the QoR collected before the failure still made it in
        assert records[0]["qor"]

    def test_explore_history_grouping(self, tmp_path):
        history = tmp_path / "h"
        argv = [
            "explore", "--designs", "x2", "--methods", "fa_aot", "wallace",
            "--history", str(history), "--log-level", "error",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        store = obs.HistoryStore(history)
        records = store.records()
        assert len(records) == 2
        assert records[0]["key"] == records[1]["key"]
        assert records[0]["key"].startswith("explore:")
        assert len(records[0]["qor"]) == 2  # one series per sweep point
        assert main(["obs", "check", "--history", str(history), "--all"]) == 0

    def test_evented_history_carries_the_sweep_summary(self, tmp_path):
        """The record's ``events_summary`` is the sweep's, written once."""
        history = tmp_path / "h"
        artifact = tmp_path / "sweep.json"
        assert main([
            "explore", "--designs", "x2", "--methods", "fa_aot", "wallace",
            "--events", str(tmp_path / "ev"), "--json", str(artifact),
            "--history", str(history), "--log-level", "error",
        ]) == 0
        (record,) = obs.HistoryStore(history).records()
        summary = json.loads(artifact.read_text(encoding="utf-8"))["events_summary"]
        assert record["extra"]["events_summary"] == summary
        assert summary["points"] == 2

    def test_non_sweep_evented_history_has_no_events_summary(self, tmp_path):
        history = tmp_path / "h"
        assert main([
            "synth", "--design", "x2", "--events", str(tmp_path / "ev"),
            "--history", str(history), "--log-level", "error",
        ]) == 0
        (record,) = obs.HistoryStore(history).records()
        assert "events_summary" not in (record["extra"] or {})

    def test_obs_report_cli(self, tmp_path):
        history = tmp_path / "h"
        self._synth(history)
        out = tmp_path / "dash.html"
        assert main(["obs", "report", "--history", str(history),
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>") and "<svg" in text

    def test_obs_flame_cli(self, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["synth", "--design", "x2", "--trace", str(trace),
                     "--log-level", "error"]) == 0
        out = tmp_path / "f.collapsed"
        assert main(["obs", "flame", str(trace), "--out", str(out)]) == 0
        content = out.read_text(encoding="utf-8")
        assert "flow.run" in content

    def test_obs_ingest_cli(self, tmp_path):
        history = tmp_path / "h"
        record_file = tmp_path / "r.json"
        record_file.write_text(json.dumps(make_record()), encoding="utf-8")
        assert main(["obs", "ingest", str(record_file),
                     "--history", str(history)]) == 0
        assert len(obs.HistoryStore(history).records()) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["obs", "ingest", str(bad), "--history", str(history)])

    def test_obs_compact_cli(self, tmp_path):
        history = tmp_path / "h"
        store = obs.HistoryStore(history)
        store.append(make_record())
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        assert main(["obs", "compact", "--history", str(history)]) == 0
        assert store.check() == []

    def test_obs_diff_cli(self, tmp_path, capsys):
        history = tmp_path / "h"
        store = obs.HistoryStore(history)
        store.append(make_record())
        store.append(make_record(slow=1.1))
        assert main(["obs", "diff", "--history", str(history)]) == 0
        assert "flow.optimize" in capsys.readouterr().out

    def test_obs_without_store_errors(self):
        with pytest.raises(SystemExit, match="no history store"):
            main(["obs", "check"])

    def test_manifest_records_exit_status(self, tmp_path):
        manifest_path = tmp_path / "m.json"
        assert main(["synth", "--design", "x2", "--manifest", str(manifest_path),
                     "--log-level", "error"]) == 0
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["status"] == "ok"
        assert manifest["exit_code"] == 0
        assert "git_commit" in manifest and "git_dirty" in manifest

    def test_check_trace_tool_history_mode(self, tmp_path):
        history = tmp_path / "h"
        obs.HistoryStore(history).append(make_record())
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_trace.py"),
             "--history", str(history), "--min-records", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        short = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_trace.py"),
             "--history", str(history), "--min-records", "5"],
            capture_output=True, text=True, env=env,
        )
        assert short.returncode == 1


class TestStageDelayHook:
    def test_planted_delay_lands_in_span(self, monkeypatch):
        monkeypatch.setenv(STAGE_DELAY_ENV, "optimize=0.05")
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig()).run("x2")
        summary = obs.aggregate_spans(tracer.spans)
        assert summary["flow.optimize"]["total_s"] >= 0.05

    def test_malformed_spec_ignored(self, monkeypatch):
        monkeypatch.setenv(STAGE_DELAY_ENV, "optimize=abc,reduce")
        # must not raise, must not sleep
        result = Flow(FlowConfig()).run("x2")
        assert result.cell_count > 0


class _BrokenPoint:
    """A point whose identity methods raise (worker-hardening fixture)."""

    design = "x2"

    def label(self):
        raise RuntimeError("label exploded")

    def to_dict(self):
        raise RuntimeError("to_dict exploded")

    def key(self):
        raise RuntimeError("key exploded")

    def config(self):
        raise RuntimeError("config exploded")


class TestWorkerTelemetryHardening:
    def test_engine_partial_telemetry_on_error(self, monkeypatch):
        """A raising point ships the spans recorded up to the failure."""

        def explode(point, design=None, library=None):
            with obs.span("explore.doomed"):
                raise RuntimeError("mid-flow failure")

        monkeypatch.setattr("repro.explore.engine.execute_point", explode)
        point = SweepSpec(designs=("x2",)).expand()[0]
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            outcome = run_sweep([point]).outcomes[0]
        assert outcome.metrics is None
        assert "mid-flow failure" in outcome.error
        names = {s["name"] for s in outcome.spans}
        assert "explore.doomed" in names and "explore.point" in names
        doomed = next(s for s in outcome.spans if s["name"] == "explore.doomed")
        assert "RuntimeError" in doomed["error"]
        assert {"explore.doomed", "explore.point"} <= set(tracer.span_names())

    def test_fuzz_case_partial_telemetry_on_error(self, monkeypatch):
        def explode(point, mutation, rvc, ewl):
            with obs.span("verify.doomed"):
                raise RuntimeError("case blew up")

        monkeypatch.setattr("repro.verify.fuzz._check_point_body", explode)
        point = SweepSpec(designs=("x2",)).expand()[0]
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            (record,), _ = run_fuzz([point])
        assert record["ok"] is False
        assert "case blew up" in record["error"]
        assert "telemetry" not in record
        names = set(tracer.span_names())
        assert "verify.doomed" in names and "verify.case" in names

    def test_check_point_survives_broken_point(self):
        record = check_point(_BrokenPoint())
        assert record["ok"] is False
        assert "label exploded" in record["error"]
        assert record["label"] == "?"

    def test_fuzz_worker_survives_broken_point(self):
        with obs.tracing(obs.Tracer()):
            (record,), _ = run_fuzz([_BrokenPoint()])
        assert record["ok"] is False
        assert "label exploded" in record["error"]
        assert "telemetry" not in record

    def test_check_property_survives_broken_point(self):
        record = check_property("opt_levels_equivalent", _BrokenPoint())
        assert record["ok"] is False
        assert "label exploded" in record["error"]

    def test_meta_worker_survives_broken_point(self):
        with obs.tracing(obs.Tracer()):
            (record,), _ = run_metamorphic(
                [_BrokenPoint()], properties=["opt_levels_equivalent"]
            )
        assert record["ok"] is False
        assert "label exploded" in record["error"]
        assert "telemetry" not in record


class TestRecordHelpers:
    def test_qor_entry_and_label(self):
        metrics = {
            "design_name": "iir", "method": "fa_aot", "final_adder": "cla",
            "library_name": "generic_035", "opt_level": 2,
            "cell_count": 42, "fa_count": 1, "ha_count": 2, "delay_ns": 1.0,
            "area": 2.0, "total_energy": 3.0, "tree_energy": 4.0,
            "notes": "dropped",
        }
        assert qor_label(metrics) == "iir:fa_aot:cla:generic_035:O2"
        entry = qor_entry(metrics)
        assert entry["cell_count"] == 42
        assert "notes" not in entry

    def test_validate_record_reports_all_problems(self):
        problems = obs.validate_record({"schema": "wrong"})
        assert len(problems) > 3
        assert obs.validate_record("not a dict")
        assert obs.validate_record(make_record()) == []
