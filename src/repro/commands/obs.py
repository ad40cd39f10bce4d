"""The ``obs`` commands: the run-history store (``ingest``, ``diff``,
``check``, ``report``, ``compact``), trace flamegraphs (``flame``) and live
event streams (``tail``, ``events-check``)."""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro import obs
from repro.commands import history_dir_of, write_json_payload


def _obs_store(args: argparse.Namespace) -> obs.HistoryStore:
    """The history store addressed by ``--history`` / ``$REPRO_HISTORY``."""
    history_dir = history_dir_of(args)
    if not history_dir:
        raise SystemExit(
            "no history store: pass --history DIR or set "
            f"{obs.HISTORY_ENV} in the environment"
        )
    store = obs.HistoryStore(history_dir)
    hint = store.migration_needed()
    if hint:
        raise SystemExit(hint)
    return store


#: the :class:`repro.obs.Thresholds` fields the threshold flags set (their
#: ``dest`` names in the CLI parser)
_THRESHOLD_FIELDS = ("qor_rel_tol", "wall_rel_tol", "min_wall_s", "counter_rel_tol", "last_n")


def _thresholds_from_args(args: argparse.Namespace) -> obs.Thresholds:
    """The flags given; an omitted flag keeps the :class:`Thresholds` default."""
    given = {name: getattr(args, name) for name in _THRESHOLD_FIELDS}
    return obs.Thresholds(**{name: value for name, value in given.items() if value is not None})


def ingest(args: argparse.Namespace) -> int:
    store = _obs_store(args)
    appended = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read record file {path}: {exc}")
        records = payload if isinstance(payload, list) else [payload]
        for record in records:
            problems = obs.validate_record(record)
            if problems:
                raise SystemExit(f"{path}: invalid record: {'; '.join(problems)}")
            store.append(record)
            appended += 1
    print(f"ingested {appended} record(s) into {store.root}")
    return 0


def _check_keys(store: obs.HistoryStore, args: argparse.Namespace) -> List[str]:
    """The grouping keys a diff/check invocation addresses."""
    if getattr(args, "all", False):
        return store.keys()
    if args.key:
        return [args.key]
    records = store.records()
    if not records:
        raise SystemExit(f"history store {store.root} is empty")
    return [str(records[-1]["key"])]


def diff(args: argparse.Namespace) -> int:
    store = _obs_store(args)
    thresholds = _thresholds_from_args(args)
    results = [
        obs.check_history(store, key=key, thresholds=thresholds)
        for key in _check_keys(store, args)
    ]
    for result in results:
        print(f"key {result['key']} (run {result['run_id']}):")
        if result["baseline"] is None:
            print(f"  {result.get('note', 'no baseline')}")
        else:
            print(
                f"  baseline: median over {result['baseline']['runs']} run(s)"
            )
        for line in obs.render_findings(result["findings"]).splitlines():
            print(f"  {line}")
    if args.json:
        write_json_payload({"results": results}, args.json)
    return 0


def check(args: argparse.Namespace) -> int:
    store = _obs_store(args)
    thresholds = _thresholds_from_args(args)
    results = [
        obs.check_history(store, key=key, thresholds=thresholds)
        for key in _check_keys(store, args)
    ]
    ok = True
    for result in results:
        gating = obs.gating_findings(result["findings"])
        verdict = "PASS" if result["ok"] else "FAIL"
        note = result.get("note")
        print(
            f"{verdict} key {result['key']}: "
            + (note if note else f"{len(gating)} gating finding(s)")
        )
        if gating:
            for line in obs.render_findings(gating).splitlines():
                print(f"  {line}")
        ok = ok and result["ok"]
    if args.json:
        write_json_payload({"ok": ok, "results": results}, args.json)
    return 0 if ok else 1


def flame(args: argparse.Namespace) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.trace}: {exc}")
    try:
        spans = obs.spans_from_trace_obj(trace)
    except ValueError as exc:
        raise SystemExit(str(exc))
    lines = obs.collapsed_stacks(spans)
    if args.out == "-":
        for line in lines:
            print(line)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    except OSError as exc:
        raise SystemExit(f"cannot write flamegraph to {args.out}: {exc}")
    print(f"wrote {len(lines)} collapsed stack(s) to {args.out}")
    return 0


def report(args: argparse.Namespace) -> int:
    store = _obs_store(args)
    try:
        path = obs.write_dashboard(store, args.out, key=args.key, title=args.title)
    except OSError as exc:
        raise SystemExit(f"cannot write dashboard to {args.out}: {exc}")
    print(f"wrote dashboard to {path}")
    return 0


def compact(args: argparse.Namespace) -> int:
    store = _obs_store(args)
    summary = store.compact()
    print(
        f"compacted {store.root}: kept {summary['records']} record(s), "
        f"dropped {summary['dropped']} corrupt line(s)"
    )
    return 0


def _format_event(event: Dict[str, object]) -> str:
    """One human-readable line per telemetry event (``obs tail``)."""
    ts = event.get("ts")
    if isinstance(ts, (int, float)):
        stamp = time.strftime("%H:%M:%S", time.localtime(ts))
        stamp += f".{int((ts % 1) * 1000):03d}"
    else:
        stamp = "??:??:??.???"
    attrs = event.get("attrs") or {}
    attrs_text = " ".join(f"{key}={value}" for key, value in attrs.items())
    return f"{stamp} {event.get('pid', '?'):>7} {event.get('kind', '?'):<11} {attrs_text}".rstrip()


def tail(args: argparse.Namespace) -> int:
    """Pretty-print an events.jsonl stream, optionally following it."""
    kinds = None
    if args.kinds:
        kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
    try:
        handle = open(args.events_file, "r", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read event stream {args.events_file}: {exc}")
    corrupt = 0
    try:
        buffer = ""
        while True:
            chunk = handle.readline()
            if not chunk:
                if not args.follow:
                    break
                time.sleep(0.2)
                continue
            buffer += chunk
            if not buffer.endswith("\n"):
                continue  # torn line of a live writer: wait for the rest
            line, buffer = buffer.strip(), ""
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if kinds is not None and event.get("kind") not in kinds:
                continue
            print(_format_event(event))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        handle.close()
    if corrupt:
        print(f"({corrupt} corrupt line(s) skipped)", file=sys.stderr)
    return 0


def events_check(args: argparse.Namespace) -> int:
    """Validate event streams: schema, gap-free per-pid seq, kinds."""
    require = [k.strip() for k in (args.require or "").split(",") if k.strip()]
    ok = True
    for path in args.files:
        try:
            events, problems = obs.load_events(path)
        except OSError as exc:
            raise SystemExit(f"cannot read event stream {path}: {exc}")
        problems += obs.check_event_stream(events, require=require)
        if problems:
            ok = False
            print(f"FAIL {path}: {len(problems)} problem(s)")
            for problem in problems[:25]:
                print(f"  {problem}")
            if len(problems) > 25:
                print(f"  ... and {len(problems) - 25} more")
        else:
            fold = obs.EventFold()
            for event in events:
                fold.handle(event)
            by_kind = fold.by_kind
            kinds_text = " ".join(f"{k}={by_kind[k]}" for k in sorted(by_kind))
            print(f"OK {path}: {len(events)} event(s) [{kinds_text}]")
    return 0 if ok else 1
