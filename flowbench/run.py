"""Flow benchmark: host-normalized end-to-end and per-layer metrics.

Run from the repository root::

    python3 flowbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 flowbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``layers.py``).  Human-readable rows come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any output check failed and 2 when the program cannot be found.
See ``README.md`` for the workloads and the ``cal`` unit.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for sweep caches and Chrome traces, inside the checkout
WORKDIR = ROOT / ".flowbench"

#: seconds of measured work between two calibration-kernel runs
KERNEL_PERIOD_S = 0.5


def load_spec() -> Dict[str, object]:
    """Metric names, units and directions, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Measurement:
    """Everything the timed loop of one run records."""

    def __init__(self) -> None:
        #: (start, seconds) of every calibration-kernel run, its start in
        #: seconds since the timed loop began
        self.kernels: List[Tuple[float, float]] = []
        #: (start, wall seconds, flows, traced) of every clean unit
        self.units: List[Tuple[float, float, int, bool]] = []
        self.attempted = 0
        self.failed = 0

    @property
    def cal_s(self) -> float:
        """The run's median kernel time: ``host.cal_ms`` and the per-layer unit."""
        return statistics.median(seconds for _start, seconds in self.kernels)

    def local_cal(self, at: float) -> float:
        """One cal at time ``at``: the mean of the kernel runs just before and after it.

        The host's speed swings within a run; a unit divided by the kernel
        runs around it is divided by the speed it ran at.  Over recorded
        runs this halved the spread of a run's mean against dividing every
        unit by the run's median kernel time.
        """
        starts = [start for start, _seconds in self.kernels]
        i = bisect.bisect_right(starts, at)
        before = self.kernels[max(i - 1, 0)][1]
        after = self.kernels[min(i, len(self.kernels) - 1)][1]
        return (before + after) / 2

    def samples(self) -> List[float]:
        """Time per flow of each clean untraced unit, in cal."""
        return [
            wall / flows / self.local_cal(start)
            for start, wall, flows, traced in self.units
            if not traced
        ]

    def tail(self, min_units: int) -> Tuple[float, float, int]:
        """(percentile, its value in cal, samples beyond it) over :meth:`samples`.

        The percentile is the highest ladder rung with ``TAIL_BEYOND``
        samples beyond it at the workload's unit floor ``min_units``.  Every
        run reaches the floor, so every run reports the same percentile.
        """
        from calib import percentile, tail_percentile

        p = tail_percentile(min_units)
        samples = self.samples()
        value = percentile(samples, p)
        return p, value, sum(s > value for s in samples)

    def mean_cal(self, traced: bool = False) -> float:
        """Time per completed flow, in cal."""
        units = [(start, wall, flows) for start, wall, flows, t in self.units if t == traced]
        return sum(w / self.local_cal(s) for s, w, _f in units) / sum(f for _s, _w, f in units)


def measure(workload, seconds: float, rng: random.Random, trace: bool, tracing=None):
    """Run rounds of ``workload`` for ``seconds``; odd rounds traced when ``trace``.

    An untraced run also goes on until ``workload.min_units`` units are
    done, the sample count its tail percentile is chosen for.  The
    calibration kernel runs between units whenever ``KERNEL_PERIOD_S`` has
    passed since its last run, so its runs spread evenly over the run, and
    once more after the last unit, so every unit has a kernel run on each
    side.

    A unit's time includes collecting the garbage it left: the collector
    runs after every unit, and everything alive before the loop is frozen
    out of its reach, so that cost does not depend on the units before.
    """
    from calib import KernelClock

    gc.collect()
    gc.freeze()
    m = Measurement()
    clock = KernelClock(workload.jobs)
    try:
        _measure_rounds(workload, seconds, rng, trace, tracing, m, clock)
    finally:
        clock.close()
    return m


def _measure_rounds(workload, seconds, rng, trace, tracing, m: Measurement, clock) -> None:
    last_kernel = None
    start = time.perf_counter()
    round_index = 0
    while (
        time.perf_counter() - start < seconds
        or (not trace and len(m.units) < workload.min_units)
        or (trace and round_index < 2)
    ):
        traced = trace and round_index % 2 == 1
        with (tracing.traced() if traced else nullcontext()) as tracer:
            for unit in workload.round(rng):
                if last_kernel is None or time.perf_counter() - last_kernel >= KERNEL_PERIOD_S:
                    last_kernel = time.perf_counter()
                    m.kernels.append((last_kernel - start, clock.time()))
                unit_start = time.perf_counter() - start
                outcome = workload.run(unit)
                collect_start = time.perf_counter()
                gc.collect()
                outcome.wall_s += time.perf_counter() - collect_start
                m.attempted += outcome.flows
                m.failed += outcome.failed
                if not outcome.failed:
                    m.units.append((unit_start, outcome.wall_s, outcome.flows, traced))
        if traced:
            tracing.totals.add(tracer)
            if tracing.trace_file is None:
                tracing.write_trace(tracer)
        round_index += 1
    m.kernels.append((time.perf_counter() - start, clock.time()))


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import coldstart
    import workloads

    spec = load_spec()
    workload = workloads.build(name, seed, WORKDIR)
    try:
        setup = coldstart.measure_setup(workload.libraries)
        problems = workload.prepare()
        checked = len(workload.qor_records()) + len(problems)
        layer_state = None
        if trace:
            import layers

            layer_state = _TraceState(layers, name, seed)
        m = measure(workload, seconds, random.Random(f"order-{name}-{seed}"), trace, layer_state)
        trace_file = layer_state.trace_file if trace else None
        records = workload.qor_records()
        explore = getattr(workload, "stats", None)
    finally:
        workload.close()

    attempted = m.attempted + checked
    failed = m.failed + len(problems)
    if failed:
        # a run whose outputs are wrong has no performance to report
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        print(f"{name}: {failed} of {attempted} flows failed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if trace:
        values = layer_state.values(setup, m, explore)
        declared = spec["per_layer"]
    else:
        values = end_to_end_values(setup, m, records, attempted, workload.min_units)
        declared = spec["end_to_end"]
    rows = {d["name"]: (values[d["name"]][0], d["unit"], values[d["name"]][1]) for d in declared}
    print(f"# {name} seed={seed} trace={int(trace)}" + (f" chrome={trace_file}" if trace_file else ""))
    for metric, (value, unit, note) in rows.items():
        print(f"{name:16s} {metric:28s} {value:14.6g} {unit:10s} {note}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _note) in rows.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def end_to_end_values(setup, m: Measurement, records, attempted: int, min_units: int):
    """``{metric: (value, note)}`` of a clean untraced run."""
    import calib
    import coldstart

    samples = m.samples()
    p50, n = calib.harrell_davis(samples, 0.5), len(samples)
    tail_p, tail, beyond = m.tail(min_units)
    flows = sum(f for _s, _w, f, t in m.units if not t)
    cells = f"geomean of {len(records)} cells"
    return {
        "setup_s": (
            setup["setup_s"],
            f"median of {coldstart.SETUP_RUNS} cold starts, in reference seconds"
            f" (raw median {setup['import_s'] + setup['library_s']:.3f} s)",
        ),
        "flow_cal.mean": (
            m.mean_cal(),
            f"{flows} flows, each in the kernel runs around it;"
            f" median kernel {m.cal_s * 1e3:.3f} ms of {len(m.kernels)} runs",
        ),
        "flow_cal.p50": (p50, f"Harrell-Davis median of {n} samples"),
        "flow_cal.tail": (tail, f"p{tail_p:g} of {n} samples, {beyond} beyond it"),
        "peak_rss_mb": (peak_rss_mb(), "benchmark process or pool worker"),
        "pass_rate": (1.0, f"fail_rate 0 of {attempted} attempted"),
        "qor.delay_ns.geomean": (calib.geomean([r["delay_ns"] for r in records]), cells),
        "qor.area.geomean": (calib.geomean([r["area"] for r in records]), cells),
        "qor.energy.geomean": (calib.geomean([r["total_energy"] for r in records]), cells),
    }


class _TraceState:
    """Per-layer bookkeeping of one traced run."""

    def __init__(self, layers, name: str, seed: int) -> None:
        self.traced = layers.traced
        self.totals = layers.LayerTotals()
        self.trace_path = WORKDIR / f"trace-{name}-{seed}.json"
        self.trace_file: Optional[str] = None

    def write_trace(self, tracer) -> None:
        from repro import obs

        self.trace_path.parent.mkdir(parents=True, exist_ok=True)
        obs.write_chrome_trace(tracer, self.trace_path)
        self.trace_file = str(self.trace_path.relative_to(ROOT))

    def values(self, setup, m: Measurement, explore) -> Dict[str, tuple]:
        import calib

        kernels, cal_s = [seconds for _start, seconds in m.kernels], m.cal_s
        per_flow = f"per flow, {self.totals.flows} traced flows"
        values = {k: (v, per_flow) for k, v in self.totals.metrics(cal_s).items()}
        values.update(
            {
                "cli.import_ms": (setup["import_s"] * 1e3, "median cold import of repro.cli"),
                "tech.library_ms": (setup["library_s"] * 1e3, "median cold library build"),
                "host.cal_ms": (cal_s * 1e3, f"median of {len(kernels)} kernel runs"),
                "host.cal_iqr": (calib.iqr_share(kernels), "kernel IQR / median"),
                "trace.overhead": (
                    m.mean_cal(traced=True) / m.mean_cal() - 1.0,
                    "traced / untraced time per flow - 1",
                ),
            }
        )
        stats = explore or {}
        points = stats.get("points", 0)
        slot_s = stats.get("slot_s", 0.0)
        busy_s = stats.get("busy_s", 0.0)
        values.update(
            {
                "explore.worker_util": (busy_s / slot_s if slot_s else 0.0, "point time / (wall x jobs)"),
                "explore.dispatch_cal": (
                    (slot_s - busy_s) / points / cal_s if points else 0.0,
                    "idle worker time per point",
                ),
                "explore.cache_get_ms": (
                    stats["get_s"] / stats["gets"] * 1e3 if stats.get("gets") else 0.0,
                    f"{int(stats.get('gets', 0))} reads",
                ),
                "explore.cache_put_ms": (
                    stats["put_s"] / stats["puts"] * 1e3 if stats.get("puts") else 0.0,
                    f"{int(stats.get('puts', 0))} writes",
                ),
                "explore.cache_hit_ratio": (
                    stats.get("hits", 0) / points if points else 0.0,
                    f"base {int(points)} points",
                ),
            }
        )
        return values


def run_all(names: Tuple[str, ...], seed: int, seconds: float) -> int:
    """Every workload in its own process; one row of end-to-end metrics each."""
    declared = load_spec()["end_to_end"]
    results = {}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark failed (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print("workload".ljust(16) + "".join(f" {d['name']} [{d['unit']}]".rjust(32) for d in declared))
    for name, result in results.items():
        values = [result["metrics"].get(d["name"], {}).get("value", "FAILED") for d in declared]
        print(name.ljust(16) + "".join(f"{v:>32.6g}" if v != "FAILED" else f"{v:>32}" for v in values))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"flowbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
