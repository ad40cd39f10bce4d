"""The core tracer: nested spans and counters, zero dependencies.

One :class:`Tracer` is the in-memory collector of one run: it records
*spans* (named, nested, wall-clock-stamped intervals) and *counters*
(monotonic accumulators like ``opt.cells_removed``).  It is installed as
the process-wide active tracer with :func:`tracing`; the module-level
:func:`span` / :func:`counter` helpers are how instrumented code talks to
it:

.. code-block:: python

    from repro import obs

    with obs.tracing(obs.Tracer()) as tracer:
        with obs.span("map.cover", cells=n):
            ...
            obs.counter("map.candidates_evaluated", len(candidates))
    events = tracer.to_dicts()        # picklable, JSON-able

When no tracer is active the helpers are near-free no-ops — a single
module-global read plus one function call — so instrumentation can stay in
hot paths permanently (``tests/test_obs.py`` asserts that an untraced flow
and sweep never reach a tracer or an event bus).

Cross-process story: ``perf_counter`` clocks are not comparable between
processes, so every span carries an epoch (``time.time``) start stamp and
its pid.  A worker process runs its own tracer, ships ``to_dicts()`` back
with its result, and the parent folds the spans in with :meth:`Tracer.adopt`
— the merged timeline renders as one Perfetto view with one lane per pid.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:
    from repro.obs.events import EventBus

#: the process-wide active tracer (None = tracing disabled, helpers no-op)
_ACTIVE: Optional["Tracer"] = None


def current_tracer() -> Optional["Tracer"]:
    """The active :class:`Tracer`, or ``None`` when tracing is disabled."""
    return _ACTIVE


class _NullSpan:
    """Shared no-op span handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def set(self, **_attrs: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager binding one open span to its tracer."""

    __slots__ = ("_tracer", "_record", "_start")

    def __init__(self, tracer: "Tracer", record: Dict[str, object]) -> None:
        self._tracer = tracer
        self._record = record
        self._start = 0.0

    def set(self, **attrs: object) -> "_SpanHandle":
        """Attach (or overwrite) span attributes while the span is open."""
        self._record["attrs"].update(attrs)  # type: ignore[union-attr]
        return self

    def __enter__(self) -> "_SpanHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self._record["dur"] = time.perf_counter() - self._start
        if exc is not None:
            # a span of a failed stage still reports its (partial) duration;
            # the error marker keeps the trace truthful about what happened
            self._record["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._close(self._record)
        return False


class Tracer:
    """In-memory collector: finished spans and counters.

    Spans are stored as plain dicts (picklable, JSON-able) with the keys
    ``id``, ``parent`` (id or ``None``), ``name``, ``ts`` (epoch seconds),
    ``dur`` (seconds), ``pid``, ``attrs`` and optionally ``error``.
    ``spans`` holds them in *close* order; parents therefore appear after
    their children, and nesting is recovered through ``parent`` ids (or by
    interval containment, which is what Chrome trace viewers do).
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[str, float] = {}
        self._next_id = 0
        self._stack: List[Dict[str, object]] = []

    # ------------------------------------------------------------- recording

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        record: Dict[str, object] = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": str(name),
            "ts": time.time(),
            "dur": 0.0,
            "pid": os.getpid(),
            "attrs": dict(attrs),
        }
        self._next_id += 1
        self._stack.append(record)
        return _SpanHandle(self, record)

    def _close(self, record: Dict[str, object]) -> None:
        # closing out of order (a leaked handle) must not corrupt the stack:
        # pop up to and including the record if it is anywhere on it
        if record in self._stack:
            while self._stack:
                if self._stack.pop() is record:
                    break
        self.spans.append(record)

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named accumulator."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    # ------------------------------------------------------- merge / export

    def adopt(
        self,
        spans: Optional[Iterable[Dict[str, object]]],
        counters: Optional[Dict[str, float]] = None,
    ) -> None:
        """Fold spans serialized by another tracer (usually another process).

        Span ids are remapped into this tracer's id space so ``parent``
        links stay unambiguous after several adoptions; open spans of this
        tracer do **not** become parents of adopted roots (the pid already
        separates the timelines).  Foreign counters are summed in.
        """
        if spans:
            base = self._next_id
            ids: Dict[object, int] = {}
            adopted = []
            for offset, record in enumerate(spans):
                copied = dict(record)
                copied["attrs"] = dict(record.get("attrs", {}))
                ids[record.get("id")] = base + offset
                adopted.append(copied)
            for copied in adopted:
                copied["id"] = ids[copied["id"]]
                parent = copied.get("parent")
                copied["parent"] = ids.get(parent) if parent is not None else None
                self.spans.append(copied)
            self._next_id = base + len(adopted)
        if counters:
            for name, value in counters.items():
                self.counter(name, value)

    def to_dicts(self) -> List[Dict[str, object]]:
        """The finished spans as a picklable list (close order preserved)."""
        return [dict(record, attrs=dict(record["attrs"])) for record in self.spans]

    def span_names(self) -> List[str]:
        """Sorted unique names of all finished spans."""
        return sorted({str(record["name"]) for record in self.spans})


# ---------------------------------------------------------------- module API


def span(name: str, **attrs: object):
    """Open a span on the active tracer (no-op when tracing is disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def counter(name: str, value: float = 1.0) -> None:
    """Bump a counter on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.counter(name, value)


@contextmanager
def tracing(tracer: Optional[Tracer]):
    """Install ``tracer`` as the active tracer for the ``with`` body.

    ``tracing(None)`` is a no-op context (the previously active tracer, if
    any, stays active) so call sites can thread an optional tracer without
    branching.
    """
    global _ACTIVE
    if tracer is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def aggregate_spans(
    spans: Iterable[Dict[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Aggregate span dicts by name: ``{name: {count, total_s}}``.

    This is the one span-summary schema of sweep artifacts and run-history
    records, so perf data accumulated anywhere can be compared anywhere.
    """
    summary: Dict[str, Dict[str, object]] = {}
    for record in spans:
        entry = summary.setdefault(
            str(record["name"]), {"count": 0, "total_s": 0.0}
        )
        entry["count"] = int(entry["count"]) + 1
        entry["total_s"] = float(entry["total_s"]) + float(record.get("dur", 0.0))
    for entry in summary.values():
        entry["total_s"] = round(float(entry["total_s"]), 6)
    return dict(sorted(summary.items()))


#: environment variable consulted when ``--history`` is not given; it lives
#: here so that a run without history never imports :mod:`repro.obs.history`
HISTORY_ENV = "REPRO_HISTORY"


# -- the event-bus slot -------------------------------------------------
#
# The live event bus (:mod:`repro.obs.events`) follows the same
# active-global pattern as the tracer.  Its slot lives here so that a run
# which installs none -- the default -- never imports the module that
# implements it.

#: the process-wide active event bus (None = telemetry off)
_BUS: Optional[EventBus] = None


def current_bus() -> Optional[EventBus]:
    """The installed :class:`~repro.obs.events.EventBus`, or ``None`` when telemetry is off."""
    return _BUS


@contextmanager
def eventing(bus: Optional[EventBus]):
    """Install ``bus`` as the active event bus for the duration.

    ``eventing(None)`` is a no-op passthrough, so call sites can write
    ``with eventing(maybe_bus):`` unconditionally.
    """
    global _BUS
    if bus is None:
        yield None
        return
    previous = _BUS
    _BUS = bus
    try:
        yield bus
    finally:
        _BUS = previous

