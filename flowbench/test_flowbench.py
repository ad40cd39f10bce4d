"""Tests of the flow benchmark itself.

Run from the repository root::

    python3 -m pytest flowbench -q

The layer-separation test measures two workloads twice for a few seconds
each, so the file takes about two minutes.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.api import STAGE_ORDER, Flow, FlowConfig  # noqa: E402
from repro.api.stages import stage  # noqa: E402
from repro.place import runner as place_runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seconds: float = 1, trace: int = 0, cwd=ROOT):
    """Run the benchmark command; return (exit code, last stdout line as JSON or None)."""
    proc = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True,
        timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize(
    "workload, trace, section",
    [("paper_tables", 0, "end_to_end"), ("sweep_cached", 1, "per_layer")],
)
def test_metric_names_and_units_match_benchmark_json(workload, trace, section):
    code, result = bench(workload, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_tail_has_at_least_ten_samples_beyond_it():
    rng = random.Random(0)
    for cells in range(1, 80, 3):
        floor = cells * max(2, -(-40 // cells))
        for repeats in range(floor // cells, floor // cells + 4):
            # every cell repeated, as in a run: one size per cell, noisy repeats
            m = run.Measurement()
            m.kernels = [(0.0, 0.05)]
            sizes = [rng.lognormvariate(0, 1) for _ in range(cells)]
            m.units = [(0.0, size * rng.uniform(0.8, 1.3), 1, False) for size in sizes * repeats]
            p, value, beyond = m.tail(floor)
            assert beyond >= calib.TAIL_BEYOND
            assert beyond == sum(s > value for s in m.samples())
            higher = [q for q in calib.TAIL_LADDER if q > p]
            assert all(calib.samples_beyond(floor, q) < calib.TAIL_BEYOND for q in higher)
    with pytest.raises(ValueError):
        calib.tail_percentile(calib.MIN_SAMPLES - 1)


def test_harrell_davis_median_moves_smoothly_across_a_gap():
    assert calib.harrell_davis(range(101), 0.5) == pytest.approx(50.0)
    # two clusters of equal size: the sample median sits in the gap and
    # leaps with a one-sample shift, the estimate moves by a small step
    low, high = [1.0] * 20, [2.0] * 20
    shifted = low[:-1] + high + [2.0]
    assert statistics.median(shifted) - statistics.median(low + high) == pytest.approx(0.5)
    step = calib.harrell_davis(shifted, 0.5) - calib.harrell_davis(low + high, 0.5)
    assert 0 < step < 0.2


def test_self_times_subtract_nested_benchmark_spans_only():
    spans = [
        {"id": 0, "parent": None, "name": "bench:api.flow", "dur": 10.0},
        {"id": 1, "parent": 0, "name": "flow.place", "dur": 6.0},
        {"id": 2, "parent": 1, "name": "bench:place.place", "dur": 5.0},
        {"id": 3, "parent": 2, "name": "bench:place.anneal", "dur": 2.0},
        {"id": 4, "parent": 3, "name": "place.inner", "dur": 1.0},
    ]
    self_s, counts = layers.self_times(spans)
    assert self_s == {"api.flow": 5.0, "place.place": 3.0, "place.anneal": 2.0}
    assert counts == {"api.flow": 1, "place.place": 1, "place.anneal": 1}


def test_traced_flow_partitions_its_time_and_keeps_qor():
    design = "x3"
    workload = workloads.build("backend_signoff", 3, ROOT / ".flowbench")
    index = next(i for i, (d, _c) in enumerate(workload.cells) if d == design)
    assert workload.prepare() == []
    originals = (Flow.run, {name: stage(name) for name in STAGE_ORDER})
    totals = layers.LayerTotals()
    with layers.traced() as tracer:
        outcome = workload.run(index)
    totals.add(tracer)
    assert outcome.failed == 0  # same QoR as the untraced reference
    assert (Flow.run, {name: stage(name) for name in STAGE_ORDER}) == originals
    metrics = totals.metrics(cal_s=1.0)
    assert totals.flows == 1
    assert sum(metrics[m] for m in layers.PARTITION) == pytest.approx(metrics["trace.flow_cal"])
    for name in ("map.map_cal", "place.anneal_cal", "opt.equiv_cal", "sim.compile_cal"):
        assert metrics[name] > 0, name
    assert 0 < metrics["place.accept_ratio"] < 1


def test_output_check_catches_a_wrong_netlist():
    result = Flow(FlowConfig()).run("x2")
    assert workloads.check_netlist("x2", result) is None
    cell = next(iter(result.netlist.cells.values()))
    port = next(iter(cell.inputs))
    result.netlist.rebind_input(cell, port, result.netlist.const(1))
    assert workloads.check_netlist("x2", result) is not None


def test_timed_run_with_different_qor_counts_as_failed():
    workload = workloads.build("paper_tables", 3, ROOT / ".flowbench")
    workload.cells = workload.cells[:1]
    assert workload.prepare() == []
    assert workload.run(0).failed == 0
    workload.reference[0] = dict(workload.reference[0], delay_ns=-1.0)
    assert workload.run(0).failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "flowbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("paper_tables", cwd=tmp_path)
    assert code != 0 and result is None


def test_planted_placer_delay_moves_backend_signoff_only(monkeypatch):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["flow_cal.mean"]
    anneal = place_runner.anneal

    def slow_anneal(*args, **kwargs):
        time.sleep(0.1)
        return anneal(*args, **kwargs)

    def mean_cal(workload):
        try:
            m = run.measure(workload, 2, random.Random(3), trace=False)
        finally:
            gc.unfreeze()
        assert m.failed == 0
        return m.mean_cal()

    for name, should_move in (("backend_signoff", True), ("paper_tables", False)):
        workload = workloads.build(name, 3, ROOT / ".flowbench")
        workload.min_units = len(workload.cells)
        try:
            assert workload.prepare() == []
            base = mean_cal(workload)
            with monkeypatch.context() as patch:
                patch.setattr(place_runner, "anneal", slow_anneal)
                change = mean_cal(workload) / base - 1.0
        finally:
            workload.close()
        if should_move:
            assert change > bound, (name, change)
        else:
            assert abs(change) <= bound, (name, change)
