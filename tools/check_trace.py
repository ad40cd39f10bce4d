#!/usr/bin/env python
"""Validate observability artifacts: traces, history stores, event streams.

CI's obs-smoke job runs this against the traces of a ``synth`` and an
``explore`` run: the file must parse, satisfy the trace-event schema
(:func:`repro.obs.validate_trace_obj`) and — via ``--require`` — contain
the span names the instrumented flow is expected to emit.  The obs-history
job runs the ``--history`` mode against a run-history store directory:
every line of its ``history.jsonl`` must be a record that satisfies the
record schema, and no ``run_id`` may repeat
(:meth:`repro.obs.HistoryStore.check`).
The obs-live job runs the ``--events`` mode against a live telemetry
stream (``--events DIR`` output): every line must satisfy the
``repro.obs.events`` schema and every ``(run_id, pid)`` emitter must have
a strictly monotone ``seq`` (:func:`repro.obs.check_event_stream`).

Usage::

    PYTHONPATH=src python tools/check_trace.py trace.json \
        --require flow.run flow.frontend flow.optimize
    PYTHONPATH=src python tools/check_trace.py --history .history \
        --min-records 2
    PYTHONPATH=src python tools/check_trace.py --events run-events/events.jsonl

Exits non-zero (with one problem per line on stderr) on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List


def check_trace(path: str, require: List[str]) -> List[str]:
    """All problems with the trace file at ``path`` (empty list = valid)."""
    from repro.obs import validate_trace_obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"cannot load {path}: {exc}"]
    problems = [f"{path}: {problem}" for problem in validate_trace_obj(obj)]
    if problems:
        return problems
    names = {
        event.get("name")
        for event in obj.get("traceEvents", ())
        if event.get("ph") == "X"
    }
    for name in require:
        if name not in names:
            problems.append(f"{path}: required span {name!r} missing")
    spans = [e for e in obj.get("traceEvents", ()) if e.get("ph") == "X"]
    if not any(e.get("args") for e in spans):
        problems.append(f"{path}: no span carries attributes")
    return problems


def check_history(path: str, min_records: int = 0) -> List[str]:
    """All problems with the history store at ``path`` (empty list = valid)."""
    from repro.obs import HistoryStore

    store = HistoryStore(path)
    problems = [f"{path}: {problem}" for problem in store.check()]
    if min_records and store.migration_needed() is None:
        count = len(store.records())
        if count < min_records:
            problems.append(
                f"{path}: store holds {count} record(s), "
                f"expected at least {min_records}"
            )
    return problems


def check_events(path: str, min_events: int = 0) -> List[str]:
    """All problems with the event stream at ``path`` (empty list = valid)."""
    from repro.obs import check_event_stream, load_events

    try:
        events, problems = load_events(path)
    except OSError as exc:
        return [f"cannot load {path}: {exc}"]
    problems = [f"{path}: {problem}" for problem in problems]
    problems += [f"{path}: {problem}" for problem in check_event_stream(events)]
    if min_events and len(events) < min_events:
        problems.append(
            f"{path}: stream holds {len(events)} event(s), "
            f"expected at least {min_events}"
        )
    return problems


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="*", help="trace file(s) to validate")
    parser.add_argument(
        "--require",
        nargs="*",
        default=[],
        metavar="SPAN",
        help="span names that must be present in every file",
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="validate the run-history store in DIR "
        "(record schema + index consistency)",
    )
    parser.add_argument(
        "--min-records",
        type=int,
        default=0,
        metavar="N",
        help="with --history: require at least N valid records",
    )
    parser.add_argument(
        "--events",
        nargs="*",
        default=[],
        metavar="FILE",
        help="validate live telemetry event stream(s) "
        "(schema + per-pid seq monotonicity)",
    )
    parser.add_argument(
        "--min-events",
        type=int,
        default=0,
        metavar="N",
        help="with --events: require at least N valid events per stream",
    )
    args = parser.parse_args(argv)
    if not args.trace and not args.history and not args.events:
        parser.error(
            "nothing to check: pass trace file(s), --history DIR "
            "and/or --events FILE"
        )
    problems: List[str] = []
    for path in args.trace:
        problems.extend(check_trace(path, args.require))
    if args.history:
        problems.extend(check_history(args.history, args.min_records))
    for path in args.events:
        problems.extend(check_events(path, args.min_events))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        for path in args.trace:
            print(f"{path}: OK")
        if args.history:
            print(f"{args.history}: OK")
        for path in args.events:
            print(f"{path}: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
