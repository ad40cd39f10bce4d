"""The benchmark's three workloads, each a closed loop with one caller.

Every workload is built from the ``--seed`` alone and exposes the same
small interface to the runner:

``prepare()``
    Run each distinct (design, config) cell once, outside the timed window,
    check its netlist against the design's expression and keep its metrics
    as the reference every timed run is compared with.
``round(rng)``
    The units of one round, in a seeded order.
``run(unit)``
    Execute one unit and return an :class:`Outcome`; only the work itself
    is inside ``wall_s`` (the runner adds the garbage collection after it).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import Flow, FlowConfig
from repro.designs.registry import TABLE1_DESIGN_NAMES, TABLE2_DESIGN_NAMES, get_design
from repro.explore import ResultCache, run_sweep
from repro.explore.engine import execute_point
from repro.explore.spec import SweepSpec
from repro.sim.equivalence import check_equivalence

#: random vectors per output check when a design is too wide to enumerate
CHECK_VECTORS = 256

#: Table-2 probability draws per run: flow times depend on the draw (iir
#: fa_random takes 24-41 ms across draws), so one run covers several.  Ten
#: fill the gaps between cell sizes around the median flow, across which
#: the median would otherwise jump from run to run
TABLE2_SEEDS = 10

#: designs small enough for several map+place rounds per run; complex,
#: kalman and idct take 0.7-3.6 s per mapped, placed flow
BACKEND_DESIGNS = ("x3", "x2_plus_x_plus_y", "square_of_sum", "mixed_products", "iir")
BACKEND_TARGETS = (("aoi_rich", "balanced"), ("nand2_basis", "delay"))

SWEEP_DESIGNS = ("x2", "x3", "x2_plus_x_plus_y", "mixed_products", "serial_adapter", "iir")
SWEEP_METHODS = ("fa_aot", "wallace")
SWEEP_JOBS = 2


@dataclass
class Outcome:
    """One timed unit: flows attempted, flows failed, wall seconds."""

    flows: int
    failed: int
    wall_s: float


#: the record fields a timed run must reproduce exactly; whole records
#: also carry wall times (``map_report.elapsed_s``)
FINGERPRINT = (
    "delay_ns", "area", "total_energy", "tree_energy", "cell_count",
    "fa_count", "ha_count", "output_width", "place_hpwl", "cts_skew_ns",
)


def fingerprint(record: Dict[str, object]) -> Tuple[object, ...]:
    """The deterministic QoR of one record, comparable across processes and runs."""
    return tuple(record.get(key) for key in FINGERPRINT)


def check_netlist(design_name: str, result) -> Optional[str]:
    """``None`` when ``result``'s netlist computes its design's expression."""
    design = get_design(design_name)
    report = check_equivalence(
        result.netlist,
        result.output_bus,
        design.expression,
        design.signals,
        output_width=design.output_width,
        random_vector_count=CHECK_VECTORS,
    )
    if report.equivalent:
        return None
    return f"{design_name}: netlist differs from expression: {report.mismatches[0]}"


class SerialFlows:
    """In-process flows, one at a time; a unit is one (design, config) cell."""

    def __init__(self, cells: List[Tuple[str, FlowConfig]], libraries: Tuple[str, ...]) -> None:
        self.cells = cells
        self.libraries = libraries
        #: processes the workload keeps busy, and so the kernels it is
        #: calibrated by
        self.jobs = 1
        #: units a run completes at least: whole rounds, at least two, and
        #: at least 40 so that the tail can be p75 or higher
        self.min_units = len(cells) * max(2, -(-40 // len(cells)))
        self.reference: Dict[int, Dict[str, object]] = {}

    def _flow(self, index: int):
        design, config = self.cells[index]
        return Flow(config).run(design)

    def prepare(self) -> List[str]:
        failures = []
        for index, (design, _config) in enumerate(self.cells):
            try:
                result = self._flow(index)
                problem = check_netlist(design, result)
            except Exception as exc:  # a failing cell is reported, not fatal
                problem = f"{design}: {type(exc).__name__}: {exc}"
            else:
                self.reference[index] = result.to_dict()
            if problem:
                failures.append(problem)
        return failures

    def round(self, rng: random.Random) -> List[int]:
        order = list(range(len(self.cells)))
        rng.shuffle(order)
        return order

    def run(self, index: int) -> Outcome:
        start = time.perf_counter()
        try:
            result = self._flow(index)
        except Exception:
            return Outcome(1, 1, time.perf_counter() - start)
        wall = time.perf_counter() - start
        reference = self.reference.get(index)
        ok = reference is not None and fingerprint(result.to_dict()) == fingerprint(reference)
        return Outcome(1, int(not ok), wall)

    def qor_records(self) -> List[Dict[str, object]]:
        return list(self.reference.values())

    def close(self) -> None:
        pass


class TimedCache(ResultCache):
    """A :class:`ResultCache` that also times its reads and writes."""

    def __init__(self, directory: Path, stats: Dict[str, float]) -> None:
        super().__init__(directory)
        self.timing = stats

    def get(self, point):
        start = time.perf_counter()
        try:
            return super().get(point)
        finally:
            self.timing["get_s"] += time.perf_counter() - start
            self.timing["gets"] += 1

    def put(self, point, metrics, telemetry=None):
        start = time.perf_counter()
        try:
            return super().put(point, metrics, telemetry=telemetry)
        finally:
            self.timing["put_s"] += time.perf_counter() - start
            self.timing["puts"] += 1


class CachedSweep:
    """``run_sweep`` with a worker pool over a half-cached grid; a unit is one sweep."""

    def __init__(self, points, workdir: Path, libraries: Tuple[str, ...]) -> None:
        self.points = points
        self.workdir = workdir
        self.libraries = libraries
        self.jobs = SWEEP_JOBS
        self.min_units = 40
        self.reference: Dict[int, Dict[str, object]] = {}
        self.stats = dict.fromkeys(
            ("get_s", "gets", "put_s", "puts", "hits", "points", "busy_s", "slot_s"), 0.0
        )

    def prepare(self) -> List[str]:
        failures = []
        for index, point in enumerate(self.points):
            try:
                result = execute_point(point)
                problem = check_netlist(point.design, result)
            except Exception as exc:
                problem = f"{point.label()}: {type(exc).__name__}: {exc}"
            else:
                self.reference[index] = result.to_dict()
            if problem:
                failures.append(problem)
        return failures

    def round(self, rng: random.Random) -> List[List[int]]:
        """One sweep, with half of every design's points pre-cached."""
        by_design: Dict[str, List[int]] = {}
        for index, point in enumerate(self.points):
            by_design.setdefault(point.design, []).append(index)
        cached = []
        for indexes in by_design.values():
            cached.extend(rng.sample(indexes, len(indexes) // 2))
        return [sorted(cached)]

    def run(self, cached: List[int]) -> Outcome:
        directory = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        try:
            seed_cache = ResultCache(directory)
            for index in cached:
                seed_cache.put(self.points[index], self.reference[index])
            cache = TimedCache(directory, self.stats)
            start = time.perf_counter()
            sweep = run_sweep(self.points, jobs=SWEEP_JOBS, cache=cache)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        failed = sum(
            1
            for index, outcome in enumerate(sweep.outcomes)
            if not outcome.ok
            or index not in self.reference
            or fingerprint(outcome.metrics) != fingerprint(self.reference[index])
        )
        self.stats["hits"] += sweep.cache_hits
        self.stats["points"] += len(self.points)
        self.stats["busy_s"] += sum(o.elapsed_s for o in sweep.outcomes if not o.cached)
        self.stats["slot_s"] += wall * sweep.jobs
        return Outcome(len(self.points), failed, wall)

    def qor_records(self) -> List[Dict[str, object]]:
        return list(self.reference.values())

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("paper_tables", "backend_signoff", "sweep_cached")


def build(name: str, seed: int, workdir: Path):
    """The workload called ``name``, with every seeded choice drawn from ``seed``."""
    rng = random.Random(f"{name}-{seed}")
    if name == "paper_tables":
        cells = [
            (design, FlowConfig(method=method))
            for design in TABLE1_DESIGN_NAMES
            for method in ("conventional", "csa_opt", "fa_aot")
        ] + [
            (design, FlowConfig(method=method, random_probabilities=True, seed=probability_seed))
            for probability_seed in [rng.randrange(1, 1 << 30) for _ in range(TABLE2_SEEDS)]
            for design in TABLE2_DESIGN_NAMES
            for method in ("fa_random", "fa_alp")
        ]
        return SerialFlows(cells, ("lib:generic_035",))
    if name == "backend_signoff":
        cells = [
            (
                design,
                FlowConfig(
                    opt_level=2,
                    target_lib=target,
                    map_objective=objective,
                    place=True,
                    place_seed=rng.randrange(1, 1 << 30),
                ),
            )
            for design in BACKEND_DESIGNS
            for target, objective in BACKEND_TARGETS
        ]
        libraries = ("lib:generic_035",) + tuple(f"target:{t}" for t, _ in BACKEND_TARGETS)
        return SerialFlows(cells, libraries)
    if name == "sweep_cached":
        spec = SweepSpec(designs=SWEEP_DESIGNS, methods=SWEEP_METHODS, opt_levels=(0, 1))
        workdir.mkdir(parents=True, exist_ok=True)
        return CachedSweep(
            spec.expand(), Path(tempfile.mkdtemp(prefix="sweep-", dir=workdir)),
            ("lib:generic_035",),
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
