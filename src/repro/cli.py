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
This module holds the parser and the dispatch; the command bodies live in
:mod:`repro.commands`, and each is imported only when its command runs.
Each handler in turn imports the layers it runs, so ``list-designs`` never
loads the flow and ``synth`` never loads the sweep engine, the verifier or
(unless asked) the optimizer, mapper and placer.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import obs
from repro._version import __version__
from repro.api.options import (
    add_domain_options,
    add_flow_options,
    add_observability_options,
    add_sweep_options,
    flow_config_from_args,
)
from repro.choices import DESIGN_NAMES
from repro.commands import history_dir_of
from repro.errors import ReproError

#: default method set for `compare` and `explore` (the paper's headline trio)
_DEFAULT_COMPARE_METHODS = ("conventional", "csa_opt", "fa_aot")

#: all progress / diagnostic chatter goes through the logging bridge, so
#: ``--log-level`` governs it uniformly (program output stays on stdout)
log = obs.get_logger("cli")


def _command(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """The handler ``name`` of :mod:`repro.commands.<module>`, imported when it runs."""

    def run(args: argparse.Namespace) -> int:
        return getattr(importlib.import_module(f"repro.commands.{module}"), name)(args)

    return run


def _add_sweep_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep (1 = serial)"
    )
    parser.add_argument(
        "--cache-dir", help="directory for the on-disk result cache (default: no cache)"
    )


# ------------------------------------------------------- obs subcommands


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
    ingest.set_defaults(func=_command("obs", "ingest"))

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
    diff.set_defaults(func=_command("obs", "diff"))

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
    check.set_defaults(func=_command("obs", "check"))

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
    flame.set_defaults(func=_command("obs", "flame"))

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
    report.set_defaults(func=_command("obs", "report"))

    compact = obs_sub.add_parser(
        "compact", help="rewrite the store without its corrupt lines"
    )
    history_arg(compact)
    compact.set_defaults(func=_command("obs", "compact"))

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
    tail.set_defaults(func=_command("obs", "tail"))

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
    events_check.set_defaults(func=_command("obs", "events_check"))


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
    list_parser.set_defaults(func=_command("flow", "list_designs"))

    synth = sub.add_parser("synth", help="synthesize one design with one method")
    synth.add_argument("--design", required=True, choices=DESIGN_NAMES)
    synth.add_argument("--timing", action="store_true", help="print a timing report")
    synth.add_argument("--power", action="store_true", help="print a power report")
    synth.add_argument("--verilog", help="write the netlist to this Verilog file")
    synth.add_argument(
        "--json", help="write the metric summary as JSON to this file ('-' = stdout)"
    )
    add_flow_options(synth)
    add_observability_options(synth)
    synth.set_defaults(func=_command("flow", "synth"))

    compare = sub.add_parser("compare", help="compare several methods on one design")
    compare.add_argument("--design", required=True, choices=DESIGN_NAMES)
    compare.add_argument(
        "--json", help="write all metric summaries as JSON to this file ('-' = stdout)"
    )
    add_flow_options(compare, exclude=("method",))
    add_sweep_options(
        compare, include=("method",), defaults={"methods": _DEFAULT_COMPARE_METHODS}
    )
    add_observability_options(compare)
    compare.set_defaults(func=_command("flow", "compare"))

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--designs", nargs="*", choices=DESIGN_NAMES)
    add_flow_options(table1, include=("library", "final_adder"))
    _add_sweep_exec_options(table1)
    add_observability_options(table1)
    table1.set_defaults(func=_command("flow", "table1"))

    table2 = sub.add_parser("table2", help="regenerate the paper's Table 2")
    table2.add_argument("--designs", nargs="*", choices=DESIGN_NAMES)
    add_flow_options(table2, include=("library", "final_adder", "seed"))
    _add_sweep_exec_options(table2)
    add_observability_options(table2)
    table2.set_defaults(func=_command("flow", "table2"))

    explore = sub.add_parser(
        "explore",
        help="run a design-space sweep (designs x methods x adders x ...)",
    )
    explore.add_argument(
        "--designs", nargs="+", choices=DESIGN_NAMES,
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
    explore.set_defaults(func=_command("flow", "explore"))

    verify = sub.add_parser(
        "verify",
        help="differential fuzzing + metamorphic + golden-metric verification",
    )
    verify.add_argument(
        "--designs", nargs="+", choices=DESIGN_NAMES,
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
    verify.set_defaults(func=_command("flow", "verify"))

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
    history_dir = history_dir_of(args)
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
