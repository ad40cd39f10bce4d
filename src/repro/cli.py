"""Command-line interface.

Usage examples::

    repro-datapath list-designs
    repro-datapath synth --design iir --method fa_aot --verilog iir.v
    repro-datapath synth --design iir --json iir.json
    repro-datapath synth --design iir --opt 2            # optimized netlist
    repro-datapath synth --design iir --analyses timing  # skip power/stats
    repro-datapath synth --design iir --target-lib nand2_basis \\
        --map-objective delay                            # technology mapping
    repro-datapath compare --design kalman --methods conventional csa_opt fa_aot
    repro-datapath table1 --jobs 4 --cache-dir .sweep-cache
    repro-datapath table2
    repro-datapath explore --designs iir kalman --methods fa_aot wallace dadda \\
        --final-adders cla ripple --opt-levels 0 2 \\
        --jobs 4 --cache-dir .sweep-cache \\
        --json sweep.json --csv sweep.csv --pareto
    repro-datapath verify --smoke --seed 0 --jobs 2 --json verify.json
    repro-datapath verify --n 48 --methods fa_aot wallace --opt-levels 0 2
    repro-datapath verify --bless          # re-pin the golden metric snapshot
    repro-datapath verify --self-test      # planted bug must be caught
    repro-datapath synth --design iir --history .history   # record the run
    repro-datapath obs check --history .history            # regression gate
    repro-datapath obs report --history .history --out report.html
    repro-datapath obs flame run.trace.json --out run.collapsed
    repro-datapath explore --jobs 4 --events run-events --live \\
        --point-timeout 120                  # streamed live telemetry
    repro-datapath obs tail run-events/events.jsonl -f
    repro-datapath obs events-check run-events/events.jsonl --require run_end

Every flow knob flag on ``synth`` / ``compare``, every sweep-axis flag on
``explore`` and every fuzz-domain flag on ``verify`` is **generated from
the ``repro.api.FlowConfig`` field metadata** (see :mod:`repro.api.options`)
— the CLI has no hand-maintained copy of the knob list.  ``table1`` /
``table2``, ``explore`` and ``verify`` all run on the :mod:`repro.explore`
sweep engine, so they share its worker processes (``--jobs``); the table presets
and ``explore`` also share the on-disk result cache (``--cache-dir``).

Building the parser needs only the config schema and the design names.
Each ``_cmd_*`` handler imports the layers it runs, so ``list-designs``
never loads the flow and ``synth`` never loads the sweep engine, the
verifier or (unless asked) the optimizer, mapper and placer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import obs
from repro._version import __version__
from repro.api.options import (
    add_domain_options,
    add_flow_options,
    add_observability_options,
    add_sweep_options,
    flow_config_from_args,
)
from repro.designs.registry import (
    TABLE1_DESIGN_NAMES,
    TABLE2_DESIGN_NAMES,
    get_design,
    list_designs,
)
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.explore.engine import PointOutcome, SweepResult
    from repro.explore.spec import SweepSpec

#: default method set for `compare` and `explore` (the paper's headline trio)
_DEFAULT_COMPARE_METHODS = ("conventional", "csa_opt", "fa_aot")

#: all progress / diagnostic chatter goes through the logging bridge, so
#: ``--log-level`` governs it uniformly (program output stays on stdout)
log = obs.get_logger("cli")


def _write_json_payload(payload: object, target: str) -> None:
    """Write a JSON payload to a file, or to stdout when the target is '-'."""
    text = json.dumps(payload, indent=2)
    if target == "-":
        print(text)
    else:
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise SystemExit(f"cannot write JSON to {target}: {exc}")
        print(f"wrote JSON to {target}")


def _add_sweep_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep (1 = serial)"
    )
    parser.add_argument(
        "--cache-dir", help="directory for the on-disk result cache (default: no cache)"
    )


def _cmd_list_designs(_: argparse.Namespace) -> int:
    for name in list_designs():
        print(get_design(name).summary())
    return 0


def _record_result(args: argparse.Namespace, result, design: str) -> None:
    """Feed one synthesized design into the run's recorder (if any).

    Its history key is ``<design>:<config digest>``; a run without a
    recorder computes neither the key nor the metrics.
    """
    recorder = getattr(args, "recorder", None)
    if recorder is None:
        return
    if result.config is not None:
        recorder.add_key(f"{design}:{result.config.cache_digest()}")
    recorder.add_qor(result.to_dict())


def _record_sweep(args: argparse.Namespace, sweep: SweepResult) -> None:
    """Feed a finished sweep into the run's recorder (if any); its
    ``events_summary`` is the one the history record carries."""
    recorder = getattr(args, "recorder", None)
    if recorder is None:
        return
    for outcome in sweep.outcomes:
        recorder.add_key(f"{outcome.point.design}:{outcome.point.digest()}")
        if outcome.metrics is not None:
            recorder.add_qor(outcome.metrics)
    if sweep.events_summary:
        recorder.add_extra(events_summary=sweep.events_summary)


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.api.flow import Flow
    from repro.netlist.verilog import to_verilog
    from repro.power.report import power_report
    from repro.tech.default_libs import resolve_library
    from repro.timing.report import timing_report

    config = flow_config_from_args(args)
    library = resolve_library(config.library)
    result = Flow(config).run(args.design, library=library)
    _record_result(args, result, args.design)
    print(result.summary())
    if result.opt_report is not None:
        print()
        print(result.opt_report.render())
    if result.map_report is not None:
        print()
        print(result.map_report.render())
    if result.place_report is not None:
        print()
        print(result.place_report.render())
    if args.timing:
        if result.timing is None:
            raise SystemExit("--timing needs the 'timing' analysis (see --analyses)")
        print()
        print(timing_report(result.netlist, library, result.timing))
    if args.power:
        if result.power is None:
            raise SystemExit("--power needs the 'power' analysis (see --analyses)")
        print()
        print(power_report(result.netlist, result.power))
    if args.verilog:
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(
                to_verilog(
                    result.netlist,
                    module_name=f"{result.design_name}_{result.method}",
                )
            )
        print(f"wrote Verilog netlist to {args.verilog}")
    if args.json:
        _write_json_payload(result.to_dict(), args.json)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.flows.compare import compare_methods
    from repro.tech.default_libs import resolve_library

    design = get_design(args.design)
    config = flow_config_from_args(args, method=args.methods[0])
    row = compare_methods(
        design, args.methods, library=resolve_library(config.library), config=config
    )
    for method in args.methods:
        result = row.results[method]
        _record_result(args, result, design.name)
        print(result.summary())
    if args.json:
        payload = {
            "design": design.name,
            "results": [row.results[method].to_dict() for method in args.methods],
        }
        _write_json_payload(payload, args.json)
    return 0


def _stall_factor_from_args(args: argparse.Namespace):
    """The ``--stall-factor`` value; 0 or negative disables stall flagging."""
    factor = getattr(args, "stall_factor", 4.0)
    if factor is not None and factor <= 0:
        return None
    return factor


def _run_table_sweep(spec: SweepSpec, args: argparse.Namespace) -> SweepResult:
    """Run a paper-table preset sweep, mirroring the legacy progress lines."""
    from repro.explore.engine import run_sweep

    announced = set()

    def progress(outcome: PointOutcome, _done: int, _total: int) -> None:
        name = outcome.point.design
        if name not in announced and outcome.ok:
            announced.add(name)
            verb = "cached" if outcome.cached else "synthesized"
            log.info("  %s %s", verb, name)

    try:
        sweep = run_sweep(
            spec,
            jobs=args.jobs,
            cache=args.cache_dir,
            progress=progress,
            point_timeout=getattr(args, "point_timeout", None),
            stall_factor=_stall_factor_from_args(args),
        )
    except ReproError as exc:
        raise SystemExit(str(exc))
    _record_sweep(args, sweep)
    if not sweep.ok:
        for outcome in sweep.failures:
            log.error("  FAILED %s: %s", outcome.point.label(), outcome.error)
        raise SystemExit(f"{len(sweep.failures)} sweep point(s) failed")
    return sweep


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.explore.spec import table1_spec
    from repro.report.tables import table1_from_records

    names = args.designs or TABLE1_DESIGN_NAMES
    spec = table1_spec(names, library=args.library, final_adder=args.final_adder)
    sweep = _run_table_sweep(spec, args)
    print(table1_from_records(sweep.records, [get_design(name) for name in names]))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.explore.spec import table2_spec
    from repro.report.tables import table2_from_records

    names = args.designs or TABLE2_DESIGN_NAMES
    spec = table2_spec(
        names, seed=args.seed, library=args.library, final_adder=args.final_adder
    )
    sweep = _run_table_sweep(spec, args)
    print(table2_from_records(sweep.records, [get_design(name) for name in names]))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.api.options import sweep_spec_from_args
    from repro.explore.engine import run_sweep
    from repro.explore.io import sweep_report, write_csv, write_json

    spec = sweep_spec_from_args(args, designs=args.designs or TABLE1_DESIGN_NAMES)

    def progress(outcome: PointOutcome, done: int, total: int) -> None:
        status = "cached" if outcome.cached else ("FAILED" if not outcome.ok else "ok")
        log.info("  [%d/%d] %s: %s", done, total, outcome.point.label(), status)

    sweep = run_sweep(
        spec,
        jobs=args.jobs,
        cache=args.cache_dir,
        progress=progress,
        point_timeout=getattr(args, "point_timeout", None),
        stall_factor=_stall_factor_from_args(args),
    )
    _record_sweep(args, sweep)
    print(sweep_report(sweep, pareto=args.pareto))
    try:
        if args.json:
            path = write_json(sweep, args.json)
            print(f"wrote JSON artifact to {path}")
        if args.csv:
            path = write_csv(sweep, args.csv)
            print(f"wrote CSV artifact to {path}")
    except OSError as exc:
        raise SystemExit(f"cannot write sweep artifact: {exc}")
    return 0 if sweep.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        DEFAULT_GOLDEN_PATH,
        domain_from_args,
        run_self_test,
        run_verify,
        write_report,
    )

    if args.bless and args.no_golden:
        raise SystemExit(
            "--bless and --no-golden contradict each other: blessing rewrites "
            "the golden snapshot, --no-golden skips the golden phase entirely"
        )
    if args.self_test:
        # --n left unset keeps run_self_test's own (small) default: the
        # self-test needs a handful of cases, not a full fuzz budget
        record = run_self_test(
            seed=args.seed,
            designs=args.designs,
            domain=domain_from_args(args),
            **({} if args.n is None else {"n": args.n}),
        )
        if record["ok"]:
            print(
                f"self-test PASS: mutation {record['mutation']!r} flagged on "
                f"{record['flagged']}/{record['cases']} case(s)"
            )
            return 0
        print(
            f"self-test FAIL: mutation {record['mutation']!r} missed on "
            f"{record['missed']}, crashed on {record['crashed']}"
        )
        return 1

    def progress(phase: str, record: Dict, done: int, total: int) -> None:
        label = record.get("label", "?")
        if phase == "metamorphic":
            label = f"{record.get('property')} @ {label}"
        status = "ok" if record.get("ok") else "FAILED"
        if record.get("skipped"):
            status = "skipped"
        log.info("  [%s %d/%d] %s: %s", phase, done, total, label, status)

    try:
        report = run_verify(
            designs=args.designs,
            n=24 if args.n is None else args.n,
            seed=args.seed,
            jobs=args.jobs,
            domain=domain_from_args(args),
            golden_path=None if args.no_golden else (args.golden or DEFAULT_GOLDEN_PATH),
            bless=args.bless,
            smoke=args.smoke,
            progress=progress,
        )
    except ReproError as exc:
        raise SystemExit(str(exc))
    recorder = getattr(args, "recorder", None)
    if recorder is not None:
        designs = ",".join(args.designs) if args.designs else "all"
        recorder.add_key(
            f"verify:designs={designs}:n={args.n if args.n is not None else 24}"
            f":seed={args.seed}:smoke={args.smoke}"
        )
        recorder.add_extra(verify_ok=report.ok)
    print(report.render())
    if args.json:
        if args.json == "-":
            _write_json_payload(report.to_json_obj(), "-")
        else:
            try:
                path = write_report(report, args.json)
            except OSError as exc:
                raise SystemExit(f"cannot write verification report: {exc}")
            print(f"wrote verification report to {path}")
    return 0 if report.ok else 1


# ------------------------------------------------------- obs subcommands


def _obs_store(args: argparse.Namespace) -> obs.HistoryStore:
    """The history store addressed by ``--history`` / ``$REPRO_HISTORY``."""
    history_dir = _history_dir_of(args)
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


#: the :class:`repro.obs.Thresholds` fields the threshold flags set
_THRESHOLD_FIELDS = ("qor_rel_tol", "wall_rel_tol", "min_wall_s", "counter_rel_tol", "last_n")


def _thresholds_from_args(args: argparse.Namespace) -> obs.Thresholds:
    """The flags given; an omitted flag keeps the :class:`Thresholds` default."""
    given = {name: getattr(args, name) for name in _THRESHOLD_FIELDS}
    return obs.Thresholds(**{name: value for name, value in given.items() if value is not None})


def _add_threshold_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("thresholds")
    group.add_argument(
        "--qor-tol", dest="qor_rel_tol", type=float, default=None,
        metavar="REL", help="relative tolerance for float QoR metrics",
    )
    group.add_argument(
        "--wall-tol", dest="wall_rel_tol", type=float, default=None,
        metavar="REL",
        help="relative wall-time tolerance after host-speed normalization",
    )
    group.add_argument(
        "--min-wall", dest="min_wall_s", type=float, default=None,
        metavar="SECONDS",
        help="ignore spans below this duration; a drift must also exceed "
        "it in absolute seconds",
    )
    group.add_argument(
        "--counter-tol", dest="counter_rel_tol", type=float, default=None,
        metavar="REL", help="relative tolerance for counter totals",
    )
    group.add_argument(
        "--last-n", type=int, default=None,
        metavar="N", help="baseline = median over the last N ok runs",
    )


def _cmd_obs_ingest(args: argparse.Namespace) -> int:
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


def _cmd_obs_diff(args: argparse.Namespace) -> int:
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
        _write_json_payload({"results": results}, args.json)
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
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
        _write_json_payload({"ok": ok, "results": results}, args.json)
    return 0 if ok else 1


def _cmd_obs_flame(args: argparse.Namespace) -> int:
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


def _cmd_obs_report(args: argparse.Namespace) -> int:
    store = _obs_store(args)
    try:
        path = obs.write_dashboard(store, args.out, key=args.key, title=args.title)
    except OSError as exc:
        raise SystemExit(f"cannot write dashboard to {args.out}: {exc}")
    print(f"wrote dashboard to {path}")
    return 0


def _cmd_obs_compact(args: argparse.Namespace) -> int:
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


def _cmd_obs_tail(args: argparse.Namespace) -> int:
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


def _cmd_obs_events_check(args: argparse.Namespace) -> int:
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


def _add_obs_commands(sub) -> None:
    """Register the ``obs`` subcommand family on the main subparsers."""
    obs_parser = sub.add_parser(
        "obs",
        help="observability: history ingest/diff/check/flame/report, "
        "live event streams (tail, events-check)",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    def history_arg(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--history", metavar="DIR", default=None,
            help=f"history store directory (default: ${obs.HISTORY_ENV})",
        )

    ingest = obs_sub.add_parser(
        "ingest", help="append externally produced record files to the store"
    )
    ingest.add_argument(
        "files", nargs="+", metavar="FILE",
        help="JSON files holding one record or a list of records",
    )
    history_arg(ingest)
    ingest.set_defaults(func=_cmd_obs_ingest)

    diff = obs_sub.add_parser(
        "diff", help="show every finding of the latest run vs its baseline"
    )
    history_arg(diff)
    diff.add_argument("--key", help="grouping key to diff (default: latest run's)")
    diff.add_argument(
        "--all", action="store_true", help="diff every key in the store"
    )
    diff.add_argument("--json", help="write the findings as JSON ('-' = stdout)")
    _add_threshold_options(diff)
    diff.set_defaults(func=_cmd_obs_diff)

    check = obs_sub.add_parser(
        "check",
        help="regression gate: exit 1 on warn/fail findings vs the baseline",
    )
    history_arg(check)
    check.add_argument("--key", help="grouping key to check (default: latest run's)")
    check.add_argument(
        "--all", action="store_true", help="check every key in the store"
    )
    check.add_argument("--json", help="write the verdict as JSON ('-' = stdout)")
    _add_threshold_options(check)
    check.set_defaults(func=_cmd_obs_check)

    flame = obs_sub.add_parser(
        "flame",
        help="collapsed-stack flamegraph from a Chrome trace "
        "(flamegraph.pl / speedscope input)",
    )
    flame.add_argument("trace", help="Chrome trace-event JSON file (--trace output)")
    flame.add_argument(
        "--out", default="-", metavar="FILE",
        help="collapsed-stack output file ('-' = stdout)",
    )
    flame.set_defaults(func=_cmd_obs_flame)

    report = obs_sub.add_parser(
        "report", help="self-contained HTML dashboard of QoR and latency trends"
    )
    history_arg(report)
    report.add_argument(
        "--out", default="repro-report.html", metavar="FILE",
        help="dashboard output file (default: repro-report.html)",
    )
    report.add_argument("--key", help="restrict the dashboard to one grouping key")
    report.add_argument(
        "--title", default="repro run history", help="dashboard page title"
    )
    report.set_defaults(func=_cmd_obs_report)

    compact = obs_sub.add_parser(
        "compact", help="rewrite the store dropping corrupt lines, rebuild index"
    )
    history_arg(compact)
    compact.set_defaults(func=_cmd_obs_compact)

    tail = obs_sub.add_parser(
        "tail", help="pretty-print (and follow) a live events.jsonl stream"
    )
    tail.add_argument(
        "events_file", metavar="EVENTS_JSONL",
        help="event stream written by --events (DIR/events.jsonl)",
    )
    tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep reading as the file grows (Ctrl-C to stop)",
    )
    tail.add_argument(
        "--kinds", metavar="K1,K2", default=None,
        help="only show these event kinds (e.g. stall,retry,point_end)",
    )
    tail.set_defaults(func=_cmd_obs_tail)

    events_check = obs_sub.add_parser(
        "events-check",
        help="validate event streams: schema, gap-free strictly-increasing "
        "seq per pid (a gap flags a lost write)",
    )
    events_check.add_argument(
        "files", nargs="+", metavar="EVENTS_JSONL", help="event streams to check"
    )
    events_check.add_argument(
        "--require", default=None, metavar="KINDS",
        help="comma-separated event kinds that must appear (e.g. stall,retry)",
    )
    events_check.set_defaults(func=_cmd_obs_events_check)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser.

    All flow-knob options are generated from the FlowConfig schema; only
    command-specific I/O options (``--design``, ``--json``, ``--verilog``,
    ``--jobs``, ...) are declared here.
    """
    parser = argparse.ArgumentParser(
        prog="repro-datapath",
        description=(
            "Fine-grained arithmetic optimization for datapath synthesis "
            "(reproduction of Um, Kim, Liu - DAC 2000)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list-designs", help="list the benchmark designs")
    list_parser.set_defaults(func=_cmd_list_designs)

    synth = sub.add_parser("synth", help="synthesize one design with one method")
    synth.add_argument("--design", required=True, choices=list_designs())
    synth.add_argument("--timing", action="store_true", help="print a timing report")
    synth.add_argument("--power", action="store_true", help="print a power report")
    synth.add_argument("--verilog", help="write the netlist to this Verilog file")
    synth.add_argument(
        "--json", help="write the metric summary as JSON to this file ('-' = stdout)"
    )
    add_flow_options(synth)
    add_observability_options(synth)
    synth.set_defaults(func=_cmd_synth)

    compare = sub.add_parser("compare", help="compare several methods on one design")
    compare.add_argument("--design", required=True, choices=list_designs())
    compare.add_argument(
        "--json", help="write all metric summaries as JSON to this file ('-' = stdout)"
    )
    add_flow_options(compare, exclude=("method",))
    add_sweep_options(
        compare, include=("method",), defaults={"methods": _DEFAULT_COMPARE_METHODS}
    )
    add_observability_options(compare)
    compare.set_defaults(func=_cmd_compare)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--designs", nargs="*", choices=list_designs())
    add_flow_options(table1, include=("library", "final_adder"))
    _add_sweep_exec_options(table1)
    add_observability_options(table1)
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser("table2", help="regenerate the paper's Table 2")
    table2.add_argument("--designs", nargs="*", choices=list_designs())
    add_flow_options(table2, include=("library", "final_adder", "seed"))
    _add_sweep_exec_options(table2)
    add_observability_options(table2)
    table2.set_defaults(func=_cmd_table2)

    explore = sub.add_parser(
        "explore",
        help="run a design-space sweep (designs x methods x adders x ...)",
    )
    explore.add_argument(
        "--designs", nargs="+", choices=list_designs(),
        help="designs to sweep (default: the Table 1 design set)",
    )
    add_sweep_options(explore, defaults={"methods": _DEFAULT_COMPARE_METHODS})
    explore.add_argument(
        "--json", help="write the sweep artifact (one record per point) to this file"
    )
    explore.add_argument("--csv", help="write one CSV row per point to this file")
    explore.add_argument(
        "--pareto", action="store_true",
        help="print the (delay, area, tree-energy) Pareto front",
    )
    _add_sweep_exec_options(explore)
    add_observability_options(explore)
    explore.set_defaults(func=_cmd_explore)

    verify = sub.add_parser(
        "verify",
        help="differential fuzzing + metamorphic + golden-metric verification",
    )
    verify.add_argument(
        "--designs", nargs="+", choices=list_designs(),
        help="designs to fuzz (default: every registered design)",
    )
    verify.add_argument(
        "--n", type=int, default=None,
        help="number of fuzz cases to sample (default: 24; --self-test: 3)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="fuzzer seed (cases are reproducible)"
    )
    verify.add_argument(
        "--smoke", action="store_true",
        help="CI preset: small designs, few cases",
    )
    verify.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for all three phases (1 = serial)",
    )
    verify.add_argument(
        "--json", help="write the verification report to this JSON file"
    )
    verify.add_argument(
        "--golden", default=None,
        help="golden metric snapshot to compare against",
    )
    verify.add_argument(
        "--bless", action="store_true",
        help="rewrite the golden metric snapshot from this run",
    )
    verify.add_argument(
        "--no-golden", action="store_true", help="skip the golden-metric phase"
    )
    verify.add_argument(
        "--self-test", action="store_true",
        help="mutation test: inject a broken rewrite pass, require detection",
    )
    add_domain_options(verify)
    add_observability_options(verify)
    verify.set_defaults(func=_cmd_verify)

    _add_obs_commands(sub)

    return parser


def _manifest_config(args: argparse.Namespace):
    """The single :class:`FlowConfig` of this invocation, when it has one.

    ``synth`` / ``compare`` describe exactly one configuration whose cache
    identity belongs in the run manifest; sweep-shaped commands do not.
    """
    try:
        if args.command == "synth":
            return flow_config_from_args(args)
        if args.command == "compare":
            return flow_config_from_args(args, method=args.methods[0])
    except ReproError:
        return None
    return None


def _emit_observability(
    args: argparse.Namespace,
    tracer: Optional[obs.Tracer],
    wall_s: float,
    status: str = "ok",
    exit_code: int = 0,
) -> None:
    """Write the requested trace / profile / manifest artifacts."""
    if tracer is not None and args.trace:
        try:
            path = obs.write_chrome_trace(tracer, args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot write trace to {args.trace}: {exc}")
        log.info("wrote Chrome trace (%d spans) to %s", len(tracer.spans), path)
    if tracer is not None and args.profile:
        print(
            obs.render_profile(tracer.to_dicts(), counters=tracer.counters),
            file=sys.stderr,
        )
    if args.manifest:
        extra: Dict[str, object] = {"status": status, "exit_code": exit_code}
        if tracer is not None:
            extra.update({"trace": args.trace, "spans": len(tracer.spans)})
        try:
            path = obs.write_manifest(
                args.manifest,
                command=args.command,
                config=_manifest_config(args),
                wall_s=wall_s,
                extra=extra,
            )
        except OSError as exc:
            raise SystemExit(f"cannot write manifest to {args.manifest}: {exc}")
        log.info("wrote run manifest to %s", path)


def _append_history(
    args: argparse.Namespace,
    recorder: obs.RunRecorder,
    tracer: Optional[obs.Tracer],
    history_dir: str,
    status: str,
    exit_code: int,
    wall_s: float,
) -> None:
    """Append this run's record to the history store (best effort)."""
    if not recorder.key_parts:
        # a run that produced nothing (early SystemExit, bad flags) still
        # leaves a record, grouped under its command
        recorder.add_key(f"command:{args.command}")
    record = recorder.build(
        status=status,
        exit_code=exit_code,
        wall_s=wall_s,
        span_summary=obs.aggregate_spans(tracer.spans) if tracer is not None else None,
        counters=dict(tracer.counters) if tracer is not None else None,
        manifest=obs.run_manifest(
            command=args.command,
            config=_manifest_config(args),
            wall_s=wall_s,
            extra={"status": status, "exit_code": exit_code},
        ),
    )
    try:
        run_id = obs.HistoryStore(history_dir).append(record)
    except (OSError, ValueError) as exc:
        # history must never turn a good run into a failed one
        log.error("cannot append run history to %s: %s", history_dir, exc)
        return
    log.info(
        "appended run %s (key %s) to history %s", run_id, record["key"], history_dir
    )


def _history_dir_of(args: argparse.Namespace) -> Optional[str]:
    """The history store directory of this invocation, or ``None``."""
    return getattr(args, "history", None) or os.environ.get(obs.HISTORY_ENV) or None


def _run_command(args: argparse.Namespace) -> int:
    """Run one subcommand under the observability umbrella.

    Commands without the shared flags (``list-designs``, the ``obs``
    family) run bare.  A tracer is installed when ``--trace`` /
    ``--profile`` asked for spans or ``--history`` needs span summaries,
    so plain runs keep the disabled-tracing fast path; likewise an
    :class:`repro.obs.EventBus` only exists under ``--events`` /
    ``--live``, bracketing the command in ``run_start`` / ``run_end``
    events with a resource-gauge sampler (and the live progress renderer)
    attached.  Under ``--history`` the command gets the run's
    :class:`repro.obs.RunRecorder` as ``args.recorder``.  Artifacts are
    written even when the command exits via ``SystemExit`` — a failed
    sweep's partial trace is exactly what one wants to look at — and the
    history record carries the end-to-end exit status either way.
    """
    if not hasattr(args, "log_level"):
        return args.func(args)
    obs.configure_logging(args.log_level)
    history_dir = _history_dir_of(args)
    tracer = (
        obs.Tracer() if (args.trace or args.profile or history_dir) else None
    )
    recorder = obs.RunRecorder(args.command) if history_dir else None
    args.recorder = recorder
    events_dir = getattr(args, "events", None)
    bus = None
    sampling = contextlib.nullcontext()
    if events_dir or getattr(args, "live", False):
        events_path = (
            os.path.join(events_dir, obs.EVENTS_FILENAME) if events_dir else None
        )
        bus = obs.EventBus(path=events_path)
        if getattr(args, "live", False):
            bus.subscribe(obs.ProgressRenderer().handle)
        sampling = obs.resource_sampling(bus, interval=1.0)
        bus.emit("run_start", command=args.command)
        if events_path:
            log.info("streaming telemetry events to %s", events_path)
    start = time.perf_counter()
    code: Optional[int] = None
    failed = False
    try:
        with obs.tracing(tracer), obs.eventing(bus), sampling:
            code = args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            code = exc.code
        else:
            code = 0 if exc.code is None else 1
        raise
    except BaseException:
        failed = True
        raise
    finally:
        wall_s = time.perf_counter() - start
        exit_code = 1 if (failed or code is None) else code
        status = "ok" if exit_code == 0 else "error"
        if bus is not None:
            bus.emit(
                "run_end",
                command=args.command,
                status=status,
                exit_code=exit_code,
                wall_s=round(wall_s, 6),
            )
            bus.close()
        _emit_observability(args, tracer, wall_s, status=status, exit_code=exit_code)
        if recorder is not None and history_dir is not None:
            _append_history(
                args, recorder, tracer, history_dir, status, exit_code, wall_s
            )
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _run_command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
