"""The traced run: spans around each layer's public entry points.

Inside :func:`traced` every registered flow stage is re-registered behind a
span-recording wrapper, ``Flow.run`` and a few module-level entry points
(the equivalence checker, the sim compiler, the placer's steps and the
analyses) are wrapped the same way, and a fresh :class:`repro.obs.Tracer`
is active.  Everything is restored on exit, so untraced rounds run the
program untouched.  The spans come from this file alone; pool workers
forked while the wrappers are installed inherit them and ship their spans
back through the tracer the sweep engine already propagates.

A layer's *self time* is the duration of its spans minus the part covered
by nested spans of this file, so the self times of one flow add up to the
flow's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

from repro import obs
from repro.api import STAGE_ORDER, register_stage
from repro.api.flow import Flow
from repro.api.stages import stage

PREFIX = "bench:"

#: span key of each flow stage: ``<package>.<step>``
STAGE_KEYS = {
    "frontend": "bitmatrix.frontend",
    "reduce": "core.reduce",
    "final_adder": "adders.final_adder",
    "optimize": "opt.optimize",
    "map": "map.map",
    "place": "place.place",
    "analyze": "api.analyze",
}

#: (module, attribute, span key) of the module-level entry points wrapped
ENTRY_POINTS = (
    ("repro.opt.manager", "check_netlists_equivalent", "opt.equiv"),
    ("repro.sim.program", "compile_netlist_program", "sim.compile"),
    ("repro.place.runner", "anneal", "place.anneal"),
    ("repro.place.runner", "build_clock_tree", "place.cts"),
    ("repro.place.runner", "wire_delays", "place.wires"),
    ("repro.place.runner", "congestion_map", "place.wires"),
    ("repro.place.runner", "check_placement", "place.validate"),
    ("repro.place.runner", "validate_placement", "place.validate"),
    ("repro.api.stages", "compute_arrival_times", "timing.sta"),
    ("repro.api.stages", "propagate_probabilities", "power.power"),
    ("repro.api.stages", "estimate_power", "power.power"),
    ("repro.api.stages", "netlist_stats", "netlist.stats"),
)

#: the root span of one flow
FLOW_KEY = "api.flow"

#: per-flow time metrics whose sum is a flow's wall time: name -> span keys
#: whose self times it sums
PARTITION = {
    "api.overhead_cal": (FLOW_KEY, "api.analyze"),
    "bitmatrix.frontend_cal": ("bitmatrix.frontend",),
    "core.reduce_cal": ("core.reduce",),
    "adders.final_adder_cal": ("adders.final_adder",),
    "opt.optimize_cal": ("opt.optimize",),
    "opt.equiv_cal": ("opt.equiv",),
    "sim.compile_cal": ("sim.compile",),
    "map.map_cal": ("map.map",),
    "place.place_cal": ("place.place", "place.anneal", "place.cts", "place.wires", "place.validate"),
    "timing.sta_cal": ("timing.sta",),
    "power.power_cal": ("power.power",),
    "netlist.stats_cal": ("netlist.stats",),
}

#: every per-flow time metric: the partition, plus the place sub-steps that
#: break ``place.place_cal`` down further
TIME_METRICS = dict(
    PARTITION,
    **{
        "place.anneal_cal": ("place.anneal",),
        "place.cts_cal": ("place.cts",),
        "place.wires_cal": ("place.wires",),
        "place.validate_cal": ("place.validate",),
    },
)


def _spanned(fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(PREFIX + key):
            return fn(*args, **kwargs)

    return wrapper


def _stage_counters(name: str, context) -> None:
    """Counts read off the flow context after a stage, as obs counters."""
    if name == "reduce" and context.compression is not None:
        obs.counter(PREFIX + "core.fa_cells", context.compression.fa_count)
        obs.counter(PREFIX + "core.ha_cells", context.compression.ha_count)
    elif name == "optimize" and context.opt_report is not None:
        report = context.opt_report
        obs.counter(PREFIX + "opt.iterations", report.iterations)
        obs.counter(PREFIX + "opt.rewrites", sum(p.rewrites for p in report.passes))


def _stage_wrapper(name: str, fn):
    key = STAGE_KEYS[name]

    def wrapper(context) -> None:
        with obs.span(PREFIX + key):
            fn(context)
        _stage_counters(name, context)

    wrapper.__name__ = name
    return wrapper


@contextmanager
def traced():
    """Install the wrappers and an active tracer for the ``with`` body."""
    restore: List[Tuple[object, str, object]] = [(Flow, "run", Flow.run)]
    originals = {name: stage(name) for name in STAGE_ORDER}
    try:
        Flow.run = _spanned(Flow.run, FLOW_KEY)
        for name, fn in originals.items():
            register_stage(name)(_stage_wrapper(name, fn))
        for module_name, attr, key in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            restore.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _spanned(getattr(module, attr), key))
        with obs.tracing(obs.Tracer()) as tracer:
            yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
        for name, fn in originals.items():
            register_stage(name)(fn)


def self_times(spans: Iterable[Dict[str, object]]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and span count per key, over this file's spans."""
    by_id = {span["id"]: span for span in spans}
    self_s: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in by_id.values():
        name = str(span["name"])
        if not name.startswith(PREFIX):
            continue
        key = name[len(PREFIX):]
        self_s[key] = self_s.get(key, 0.0) + float(span["dur"])
        counts[key] = counts.get(key, 0) + 1
        parent = by_id.get(span["parent"])
        while parent is not None and not str(parent["name"]).startswith(PREFIX):
            parent = by_id.get(parent["parent"])
        if parent is not None:
            outer = str(parent["name"])[len(PREFIX):]
            self_s[outer] = self_s.get(outer, 0.0) - float(span["dur"])
    return self_s, counts


class LayerTotals:
    """Self times, span counts and counters summed over the traced rounds."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}

    def add(self, tracer: "obs.Tracer") -> None:
        self_s, counts = self_times(tracer.spans)
        for key, value in self_s.items():
            self.self_s[key] = self.self_s.get(key, 0.0) + value
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in tracer.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    @property
    def flows(self) -> int:
        return self.counts.get(FLOW_KEY, 0)

    def metrics(self, cal_s: float) -> Dict[str, float]:
        """Per-flow layer metrics: times in ``cal``, counts, ratios."""
        flows = max(self.flows, 1)
        out = {
            name: sum(self.self_s.get(key, 0.0) for key in keys) / flows / cal_s
            for name, keys in TIME_METRICS.items()
        }
        counter = self.counters.get
        compiles = counter("sim.program_compiles", 0.0)
        hits = counter("sim.program_cache_hits", 0.0)
        covered = counter("map.cells_covered", 0.0)
        moves = counter("place.moves", 0.0)
        out.update(
            {
                "core.fa_cells": counter(PREFIX + "core.fa_cells", 0.0) / flows,
                "core.ha_cells": counter(PREFIX + "core.ha_cells", 0.0) / flows,
                "opt.iterations": counter(PREFIX + "opt.iterations", 0.0) / flows,
                "opt.rewrites": counter(PREFIX + "opt.rewrites", 0.0) / flows,
                "opt.equiv_calls": self.counts.get("opt.equiv", 0) / flows,
                "sim.compiles": compiles / flows,
                "sim.cache_hit_ratio": hits / (hits + compiles) if hits + compiles else 0.0,
                "map.cells_covered": covered / flows,
                "map.score_cache_hit_ratio": (
                    counter("map.score_cache_hits", 0.0) / covered if covered else 0.0
                ),
                "place.accept_ratio": counter("place.accepted", 0.0) / moves if moves else 0.0,
                "trace.flow_cal": sum(self.self_s.values()) / flows / cal_s,
            }
        )
        return out
