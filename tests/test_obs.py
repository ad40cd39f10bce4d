"""Tests for the ``repro.obs`` observability layer.

Covers the tracer contract (nesting, ordering, error capture, disabled
fast path), counter aggregation, the Chrome trace-event export (schema
validity and cross-process merge determinism), the logging bridge, the
profiler, run manifests — and the integration seams: flow runs emit the
expected span tree (pinned by a golden file), a raising stage still books
its partial ``stage_times``, and traced sweeps merge worker spans.
"""

import json
import logging
import os
import pathlib

import pytest

from repro import obs
from repro.api import Flow, FlowConfig
from repro.api.stages import STAGE_ORDER, register_stage, stage as registered_stage
from repro.explore.engine import run_sweep
from repro.explore.io import sweep_to_json_obj
from repro.explore.spec import SweepSpec
from repro.obs import (
    LOG_LEVELS,
    EventBus,
    Tracer,
    aggregate_spans,
    configure_logging,
    get_logger,
    render_profile,
    run_manifest,
    trace_events,
    trace_obj,
    validate_trace_obj,
    write_chrome_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "obs"


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Tests assume tracing is off unless they install a tracer."""
    assert obs.current_tracer() is None
    yield
    assert obs.current_tracer() is None


class TestTracer:
    def test_nesting_parent_ids(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("sibling"):
                    pass
        by_name = {s["name"]: s for s in tracer.spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["sibling"]["parent"] == by_name["outer"]["id"]

    def test_close_order_children_before_parents(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        assert [s["name"] for s in tracer.spans] == ["inner", "outer"]

    def test_span_attrs_and_set(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            with obs.span("work", cells=3) as handle:
                handle.set(covered=True)
        (span,) = tracer.spans
        assert span["attrs"] == {"cells": 3, "covered": True}
        assert span["dur"] >= 0.0
        assert span["pid"] == os.getpid()

    def test_exception_records_partial_span_and_propagates(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        (span,) = tracer.spans
        assert span["error"] == "ValueError: boom"
        assert span["dur"] >= 0.0

    def test_disabled_helpers_are_noops(self):
        handle = obs.span("ignored", x=1)
        with handle as h:
            h.set(y=2)
        obs.counter("ignored")
        assert obs.current_tracer() is None

    def test_tracing_none_keeps_current(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            with obs.tracing(None) as active:
                assert active is tracer
                with obs.span("still-recorded"):
                    pass
        assert tracer.span_names() == ["still-recorded"]

    def test_counter_aggregation(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            obs.counter("opt.rewrites", 2)
            obs.counter("opt.rewrites", 3)
            obs.counter("map.cells_covered")
        assert tracer.counters == {"opt.rewrites": 5.0, "map.cells_covered": 1.0}

    def test_aggregate_spans_schema(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            for _ in range(3):
                with obs.span("a"):
                    pass
            with obs.span("b"):
                pass
        summary = aggregate_spans(tracer.to_dicts())
        assert list(summary) == ["a", "b"]  # sorted
        assert summary["a"]["count"] == 3
        assert summary["b"]["count"] == 1
        assert all(entry["total_s"] >= 0.0 for entry in summary.values())


class TestAdopt:
    @staticmethod
    def _worker_spans(names, pid):
        tracer = Tracer()
        with obs.tracing(tracer):
            with obs.span(names[0]):
                for name in names[1:]:
                    with obs.span(name):
                        pass
        spans = tracer.to_dicts()
        for span in spans:
            span["pid"] = pid  # simulate a foreign process
        return spans

    def test_adopt_remaps_ids_and_keeps_links(self):
        parent = Tracer()
        with obs.tracing(parent):
            with obs.span("local"):
                pass
        foreign = self._worker_spans(["root", "leaf"], pid=99999)
        parent.adopt(foreign, {"k": 2.0})
        parent.adopt(self._worker_spans(["root", "leaf"], pid=88888))
        ids = [s["id"] for s in parent.spans]
        assert len(ids) == len(set(ids)), "adopted ids must not collide"
        for span in parent.spans:
            if span["parent"] is not None:
                assert span["parent"] in ids
        assert parent.counters == {"k": 2.0}

    def test_cross_process_merge_is_order_deterministic(self):
        """Two adoption orders must export byte-identical Chrome traces."""
        batch_a = self._worker_spans(["root-a", "leaf-a"], pid=11111)
        batch_b = self._worker_spans(["root-b", "leaf-b"], pid=22222)

        one, two = Tracer(), Tracer()
        one.adopt(batch_a), one.adopt(batch_b)
        two.adopt(batch_b), two.adopt(batch_a)
        text_one = json.dumps(trace_obj(one), sort_keys=True)
        text_two = json.dumps(trace_obj(two), sort_keys=True)
        assert text_one == text_two


class TestChromeExport:
    def _traced_flow(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig(opt_level=2)).run("x2")
        return tracer

    def test_trace_obj_is_schema_valid(self):
        obj = trace_obj(self._traced_flow())
        assert validate_trace_obj(obj) == []
        assert obj["displayTimeUnit"] == "ms"

    def test_events_carry_nesting_compatible_timestamps(self):
        tracer = self._traced_flow()
        events = [e for e in trace_events(tracer.to_dicts()) if e["ph"] == "X"]
        by_name = {e["name"]: e for e in events}
        outer, inner = by_name["flow.run"], by_name["flow.frontend"]
        # the child interval must sit inside the parent interval (µs)
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1
        assert all(e["pid"] == os.getpid() for e in events)

    def test_counters_become_counter_events(self):
        tracer = self._traced_flow()
        counter_events = [
            e
            for e in trace_events(tracer.to_dicts(), tracer.counters)
            if e["ph"] == "C"
        ]
        assert {e["name"] for e in counter_events} >= {"opt.rewrites"}

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        path = write_chrome_trace(self._traced_flow(), tmp_path / "trace.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert validate_trace_obj(json.load(handle)) == []

    def test_validate_flags_malformed(self):
        assert validate_trace_obj([]) != []
        assert validate_trace_obj({"traceEvents": [{"ph": "X"}]}) != []
        assert validate_trace_obj({"traceEvents": "nope"}) != []


class TestGoldenSpanNames:
    def test_default_synth_span_names(self):
        """The span tree of a default synth run is a pinned contract."""
        tracer = Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig()).run("x2")
        content = json.dumps(tracer.span_names(), indent=2) + "\n"
        path = GOLDEN_DIR / "trace_spans.json"
        if os.environ.get("REPRO_BLESS"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        assert path.exists(), (
            f"missing golden file {path}; regenerate with "
            f"REPRO_BLESS=1 python -m pytest {__file__}"
        )
        assert content == path.read_text(encoding="utf-8"), (
            "default flow span names drifted; if intentional, regenerate "
            "with REPRO_BLESS=1"
        )

    def test_every_flow_stage_has_a_span(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig(opt_level=2)).run("x2")
        names = set(tracer.span_names())
        for stage in STAGE_ORDER:
            assert f"flow.{stage}" in names
        assert any(name.startswith("opt.") for name in names), sorted(names)
        roots = [s for s in tracer.spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["flow.run"]


class TestDisabledPathWorkCount:
    """With nothing installed, instrumented code never reaches a tracer or bus.

    The ``obs`` helpers stay in the hot paths permanently; they cost almost
    nothing when off because each returns before touching a
    :class:`Tracer` or an :class:`~repro.obs.events.EventBus`, and no layer
    builds one of its own.  Counting those calls is deterministic where
    timing the no-op path is not.
    """

    def test_untraced_flow_and_sweep_make_no_obs_calls(self, monkeypatch):
        calls = []

        def forbidden(name):
            def method(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} reached with nothing installed")

            return method

        for owner, name in (
            (Tracer, "__init__"),
            (Tracer, "span"),
            (Tracer, "counter"),
            (EventBus, "__init__"),
            (EventBus, "emit"),
        ):
            monkeypatch.setattr(owner, name, forbidden(f"{owner.__name__}.{name}"))

        Flow(FlowConfig(opt_level=2, target_lib="aoi_rich", place=True)).run("iir")
        spec = SweepSpec(designs=("iir",), methods=("fa_aot", "wallace"))
        sweep = run_sweep(spec, jobs=1)
        assert calls == []
        assert sweep.ok, [o.error for o in sweep.failures]
        assert obs.current_tracer() is None and obs.current_bus() is None


class TestFlowAccounting:
    def test_raising_stage_books_partial_time(self):
        """A stage that raises still lands in stage_times and its span."""
        seen = []

        def exploding_stage(result):
            seen.append(result)
            raise RuntimeError("mid-stage failure")

        original = registered_stage("reduce")
        register_stage("reduce")(exploding_stage)
        tracer = Tracer()
        try:
            with obs.tracing(tracer):
                with pytest.raises(RuntimeError, match="mid-stage failure"):
                    Flow(FlowConfig()).run("x2")
        finally:
            register_stage("reduce")(original)
        failed = [s for s in tracer.spans if s["name"] == "flow.reduce"]
        assert failed and "error" in failed[0]
        # the partial time of the raising stage is booked
        assert list(seen[0].stage_times) == ["frontend", "reduce"]
        assert seen[0].stage_times["reduce"] >= 0.0
        # the flow span itself closed with the error recorded too
        flow_span = [s for s in tracer.spans if s["name"] == "flow.run"]
        assert flow_span and "error" in flow_span[0]


class TestLogBridge:
    def test_levels_and_idempotent_configuration(self, capsys):
        configure_logging("debug")
        configure_logging("debug")  # second call must not duplicate handlers
        root = logging.getLogger("repro")
        marked = [h for h in root.handlers if getattr(h, "_repro_cli_handler", False)]
        assert len(marked) == 1
        log = get_logger("test")
        log.debug("dbg-line")
        log.info("info-line")
        err = capsys.readouterr().err
        assert err.count("dbg-line") == 1 and err.count("info-line") == 1

        configure_logging("warning")
        log.info("hidden-line")
        log.warning("shown-line")
        err = capsys.readouterr().err
        assert "hidden-line" not in err and "shown-line" in err
        configure_logging("info")

    def test_level_names_cover_cli_choices(self):
        assert LOG_LEVELS == ("error", "warning", "info", "debug")


class TestProfileAndManifest:
    def test_render_profile_orders_by_total(self):
        tracer = Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig(opt_level=2)).run("x2")
        text = render_profile(tracer.to_dicts(), counters=tracer.counters)
        lines = [l for l in text.splitlines() if "flow.run" in l or "flow.map" in l]
        assert lines, text
        # flow.run dominates everything, so it must be the first data row
        first_data = next(
            l for l in text.splitlines() if l.strip().startswith("flow.")
        )
        assert first_data.strip().startswith("flow.run")
        assert "opt.rewrites" in text

    def test_manifest_records_config_identity(self):
        config = FlowConfig(seed=7)
        manifest = run_manifest(command="synth", config=config, wall_s=1.5)
        assert manifest["schema"] == "repro.obs.manifest"
        assert manifest["command"] == "synth"
        assert manifest["config_cache_key"] == config.cache_key()
        assert manifest["config_cache_digest"] == config.cache_digest()
        assert manifest["seed"] == 7
        assert manifest["wall_s"] == 1.5
        assert manifest["pid"] == os.getpid()
        json.dumps(manifest)  # flat and JSON-able


class TestExploreIntegration:
    def test_traced_sweep_merges_worker_spans(self):
        spec = SweepSpec(designs=("x2",), methods=("fa_aot", "csa_opt"))
        tracer = Tracer()
        with obs.tracing(tracer):
            sweep = run_sweep(spec, jobs=2)
        assert sweep.ok
        names = set(tracer.span_names())
        assert {"explore.sweep", "explore.point", "flow.run"} <= names
        points = [s for s in tracer.spans if s["name"] == "explore.point"]
        assert len(points) == 2
        summary = sweep.span_summary()
        assert summary["flow.run"]["count"] == 2

    def test_untraced_sweep_artifact_has_no_span_summary(self):
        spec = SweepSpec(designs=("x2",), methods=("fa_aot",))
        sweep = run_sweep(spec, jobs=1)
        obj = sweep_to_json_obj(sweep)
        assert "span_summary" not in obj
        assert all("span_summary" not in p for p in obj["points"])
