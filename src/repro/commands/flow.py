"""The flow commands: ``list-designs``, ``synth``, ``compare``, ``table1`` /
``table2``, ``explore`` and ``verify``.

Each handler imports the layers it runs, when it runs (see :mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Dict

from repro import obs
from repro.api.options import flow_config_from_args
from repro.choices import DESIGN_NAMES, TABLE1_DESIGN_NAMES, TABLE2_DESIGN_NAMES
from repro.commands import write_json_payload
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.explore.engine import PointOutcome, SweepResult
    from repro.explore.spec import SweepSpec

#: progress lines go through the CLI's logger, so ``--log-level`` governs them
log = obs.get_logger("cli")


def list_designs(_: argparse.Namespace) -> int:
    from repro.designs.registry import get_design

    for name in DESIGN_NAMES:
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


def synth(args: argparse.Namespace) -> int:
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
        write_json_payload(result.to_dict(), args.json)
    return 0


def compare(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.api.flow import Flow
    from repro.tech.default_libs import resolve_library

    config = flow_config_from_args(args, method=args.methods[0])
    library = resolve_library(config.library)
    results = []
    for method in args.methods:
        result = Flow(replace(config, method=method)).run(args.design, library=library)
        _record_result(args, result, args.design)
        print(result.summary())
        results.append(result.to_dict())
    if args.json:
        write_json_payload({"design": args.design, "results": results}, args.json)
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


def table1(args: argparse.Namespace) -> int:
    from repro.designs.registry import get_design
    from repro.explore.spec import table1_spec
    from repro.report.tables import table1_report

    names = args.designs or TABLE1_DESIGN_NAMES
    spec = table1_spec(names, library=args.library, final_adder=args.final_adder)
    sweep = _run_table_sweep(spec, args)
    print(table1_report(sweep.records, [get_design(name) for name in names]))
    return 0


def table2(args: argparse.Namespace) -> int:
    from repro.designs.registry import get_design
    from repro.explore.spec import table2_spec
    from repro.report.tables import table2_report

    names = args.designs or TABLE2_DESIGN_NAMES
    spec = table2_spec(
        names, seed=args.seed, library=args.library, final_adder=args.final_adder
    )
    sweep = _run_table_sweep(spec, args)
    print(table2_report(sweep.records, [get_design(name) for name in names]))
    return 0


def explore(args: argparse.Namespace) -> int:
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


def verify(args: argparse.Namespace) -> int:
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
            write_json_payload(report.to_json_obj(), "-")
        else:
            try:
                path = write_report(report, args.json)
            except OSError as exc:
                raise SystemExit(f"cannot write verification report: {exc}")
            print(f"wrote verification report to {path}")
    return 0 if report.ok else 1
