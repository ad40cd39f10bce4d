"""``repro.obs`` — structured tracing, metrics, logging and run manifests.

The observability layer of the flow: a zero-dependency tracer with nested
spans, counters and gauges (:mod:`repro.obs.tracer`), a Chrome trace-event
exporter viewable in Perfetto / ``chrome://tracing``
(:mod:`repro.obs.chrome`), a stdlib-``logging`` bridge with CLI-controlled
verbosity (:mod:`repro.obs.logbridge`), a top-N span profiler
(:mod:`repro.obs.profile`) and reproducibility manifests
(:mod:`repro.obs.manifest`).

Instrumented code calls the module-level helpers unconditionally::

    from repro import obs

    with obs.span("opt.constant-fold", iteration=2):
        ...
        obs.counter("opt.cells_removed", removed)

When no tracer is installed (the default) these are near-free no-ops, so
the instrumentation lives permanently in the hot paths; ``--trace FILE``
on the CLI (or :func:`tracing` around any API call) turns one run into a
merged, cross-process timeline.

Only the tracer helpers (and the recorder / event-bus slots beside them)
are imported with the package; every other name loads its module on first
access (PEP 562), so instrumented layers pay nothing for the exporters,
the history store or the event bus they do not use.
"""

from repro._lazy import lazy_exports
from repro.obs.tracer import (
    HISTORY_ENV,
    Tracer,
    aggregate_spans,
    counter,
    current_bus,
    current_recorder,
    current_tracer,
    emit_event,
    eventing,
    gauge,
    recording,
    span,
    tracing,
)

#: everything else loads on first use: a run without ``--trace``,
#: ``--history`` or ``--events`` never imports the modules behind it
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.obs.chrome": (
            "trace_events",
            "trace_obj",
            "validate_trace_obj",
            "write_chrome_trace",
        ),
        "repro.obs.events": (
            "EVENT_KINDS",
            "EVENT_SCHEMA",
            "EVENT_SCHEMA_VERSION",
            "EVENTS_FILENAME",
            "EventBus",
            "check_event_stream",
            "load_events",
            "new_run_id",
            "point_heartbeat",
            "validate_event_obj",
        ),
        "repro.obs.history": (
            "HistoryStore",
            "RunRecorder",
            "Thresholds",
            "build_record",
            "check_history",
            "diff_records",
            "gating_findings",
            "render_findings",
            "select_baseline",
            "validate_record",
        ),
        "repro.obs.logbridge": ("LOG_LEVELS", "configure_logging", "get_logger"),
        "repro.obs.manifest": (
            "git_provenance",
            "peak_rss_bytes",
            "run_manifest",
            "write_manifest",
        ),
        "repro.obs.profile": ("profile_rows", "render_profile"),
        "repro.obs.progress": ("ProgressRenderer",),
        "repro.obs.report": (
            "collapsed_stacks",
            "render_dashboard",
            "spans_from_trace_obj",
            "write_dashboard",
            "write_flamegraph",
        ),
        "repro.obs.resource": (
            "ResourceSampler",
            "cpu_seconds",
            "rss_bytes",
            "sample_resources",
        ),
    },
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EVENT_SCHEMA_VERSION",
    "EVENTS_FILENAME",
    "EventBus",
    "HISTORY_ENV",
    "HistoryStore",
    "LOG_LEVELS",
    "ProgressRenderer",
    "ResourceSampler",
    "RunRecorder",
    "Thresholds",
    "Tracer",
    "aggregate_spans",
    "build_record",
    "check_event_stream",
    "check_history",
    "collapsed_stacks",
    "configure_logging",
    "counter",
    "cpu_seconds",
    "current_bus",
    "current_recorder",
    "current_tracer",
    "diff_records",
    "emit_event",
    "eventing",
    "gating_findings",
    "gauge",
    "get_logger",
    "git_provenance",
    "load_events",
    "new_run_id",
    "peak_rss_bytes",
    "point_heartbeat",
    "profile_rows",
    "recording",
    "rss_bytes",
    "sample_resources",
    "render_dashboard",
    "render_findings",
    "render_profile",
    "run_manifest",
    "select_baseline",
    "span",
    "spans_from_trace_obj",
    "trace_events",
    "trace_obj",
    "tracing",
    "validate_event_obj",
    "validate_record",
    "validate_trace_obj",
    "write_chrome_trace",
    "write_dashboard",
    "write_flamegraph",
    "write_manifest",
]
