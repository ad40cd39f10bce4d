"""The technology-mapping engine: greedy covering over the template library.

:class:`TechnologyMappingPass` is a :class:`repro.opt.base.RewritePass` (so
the whole run rides the :class:`repro.opt.manager.PassManager`'s fixpoint /
validation / equivalence machinery).  One invocation sweeps the netlist in
topological order and *covers* every cell whose type is outside the target
basis with the best-scoring applicable template:

* fanin cells are covered before their readers, so the pass maintains exact
  arrival-time estimates (target-library arcs) for every net it has passed —
  the delay objective scores a candidate template on the real arrivals of
  the nets it will consume, not on unit depths;
* candidates are the registered templates for the cell's type whose gates
  all belong to the basis; a type with no applicable template is a
  :class:`repro.errors.MappingError` (the basis is not universal enough);
* scoring follows the objective: ``area`` minimizes summed cell area (ties
  broken by arrival), ``delay`` minimizes the worst output arrival (ties
  broken by area), ``balanced`` minimizes the sum of both, each normalized
  by the best candidate; all three fall back to the template name as the
  final deterministic tie-break.

:func:`map_netlist` is the front door used by the flow stage and the CLI:
it assembles the pass pipeline (mapping, then BUF/NOT cleanup and dead-cell
elimination to sweep the template seams), runs it equivalence-checked
against the pre-mapping netlist, asserts the basis post-condition and
returns a :class:`~repro.map.report.MapReport`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import MappingError
from repro.map.report import MapReport
from repro.map.targets import (
    GENERIC_TARGET,
    MAP_OBJECTIVES,
    basis_of,
    resolve_target_library,
)
from repro.map.templates import (
    MapTemplate,
    materialize_template,
    template_area,
    template_arrivals,
    templates_for,
)
from repro.netlist.cells import cell_input_ports, cell_output_ports
from repro.netlist.core import Net, Netlist
from repro.netlist.stats import netlist_stats
from repro.opt.base import RewritePass, retire_cell
from repro.opt.cleanup import CleanupPass
from repro.opt.dce import DeadCellEliminationPass
from repro.opt.manager import PassManager
from repro.tech.library import TechLibrary
from repro.timing.arrival import compute_arrival_times


class TechnologyMappingPass(RewritePass):
    """Cover every out-of-basis cell with its best applicable template."""

    name = "tech-map"

    def __init__(self, library: TechLibrary, objective: str = "balanced") -> None:
        super().__init__()
        if objective not in MAP_OBJECTIVES:
            raise MappingError(
                f"unknown map objective {objective!r}; "
                f"expected one of {MAP_OBJECTIVES}"
            )
        self.library = library
        self.objective = objective
        self.basis = basis_of(library)
        #: template name -> number of applications (accumulated across runs)
        self.template_counts: Dict[str, int] = {}
        #: per cell type: the applicable (template, area) pairs — candidates
        #: and areas depend only on (cell type, library), so they are
        #: computed once here instead of once per covered cell
        self._candidate_cache: Dict[object, List[Tuple[MapTemplate, float]]] = {}
        #: (cell type, per-port input-arrival tuple) -> (winner, out arrivals);
        #: scoring is a pure function of that key for a fixed library and
        #: objective, and compressor trees present the same few arrival
        #: profiles over and over, so most covers are cache hits
        self._score_cache: Dict[
            Tuple, Tuple[MapTemplate, Dict[str, float]]
        ] = {}

    # ------------------------------------------------------------- selection

    def _candidates(self, cell_type) -> List[Tuple[MapTemplate, float]]:
        if cell_type not in self._candidate_cache:
            self._candidate_cache[cell_type] = [
                (template, template_area(template, self.library))
                for template in templates_for(cell_type)
                if template.gates() <= self.basis
            ]
        candidates = self._candidate_cache[cell_type]
        if not candidates:
            raise MappingError(
                f"no template maps {cell_type} into the "
                f"{self.library.name!r} basis "
                f"({', '.join(sorted(ct.value for ct in self.basis))})"
            )
        return candidates

    def _choose(
        self,
        candidates: List[Tuple[MapTemplate, float]],
        input_arrivals: Dict[str, float],
    ) -> Tuple[MapTemplate, Dict[str, float]]:
        """Score every candidate and return (winner, its output arrivals)."""
        scored = []
        for template, area in candidates:
            arrivals = template_arrivals(template, self.library, input_arrivals)
            worst = max(arrivals.values())
            scored.append((template, area, worst, arrivals))
        if self.objective == "area":
            key = lambda entry: (entry[1], entry[2], entry[0].name)  # noqa: E731
        elif self.objective == "delay":
            key = lambda entry: (entry[2], entry[1], entry[0].name)  # noqa: E731
        else:  # balanced
            min_area = min(entry[1] for entry in scored)
            min_delay = min(entry[2] for entry in scored)
            key = lambda entry: (  # noqa: E731
                entry[1] / min_area + entry[2] / min_delay,
                entry[0].name,
            )
        template, _, _, arrivals = min(scored, key=key)
        return template, arrivals

    # ------------------------------------------------------------- the sweep

    def _input_arrival(self, net: Net, arrivals: Dict[str, float]) -> float:
        if net.name in arrivals:
            return arrivals[net.name]
        # primary inputs and constants: the matrix builder's arrival
        # annotation when present, otherwise time zero
        return float(net.attributes.get("arrival", 0.0))

    def run(self, netlist: Netlist) -> int:
        with obs.span(
            "map.cover",
            library=self.library.name,
            objective=self.objective,
            cells=netlist.num_cells(),
        ) as cover_span:
            changed = self._cover(netlist)
            cover_span.set(covered=changed)
        return changed

    def _cover(self, netlist: Netlist) -> int:
        changed = 0
        self.touched_nets = set()
        basis = self.basis
        if all(cell.cell_type in basis for cell in netlist.cells.values()):
            # the fixpoint's confirming sweep: nothing to cover, so no
            # arrivals to price
            return 0
        # per-net arrival estimates accumulated along the sweep; only the
        # nets downstream cells can read need an entry (replacement nets,
        # kept-cell outputs) — template-internal nets and retired
        # primary-output nets are never consumed by later sweep steps
        arrivals: Dict[str, float] = {}
        for cell in netlist.topological_cells():
            in_ports = cell_input_ports(cell.cell_type)
            input_arrivals = {
                port: self._input_arrival(cell.inputs[port], arrivals)
                for port in in_ports
            }
            if cell.cell_type in self.basis:
                # kept cell: extend the arrival estimates and move on
                for out_port in cell_output_ports(cell.cell_type):
                    arrivals[cell.outputs[out_port].name] = max(
                        input_arrivals[port]
                        + self.library.delay(cell.cell_type, port, out_port)
                        for port in in_ports
                    )
                continue
            score_key = (
                cell.cell_type,
                tuple(input_arrivals[port] for port in in_ports),
            )
            cached = self._score_cache.get(score_key)
            if cached is None:
                candidates = self._candidates(cell.cell_type)
                cached = self._choose(candidates, input_arrivals)
                self._score_cache[score_key] = cached
                obs.counter("map.candidates_evaluated", len(candidates))
            else:
                obs.counter("map.score_cache_hits")
            template, out_arrivals = cached
            obs.counter("map.cells_covered")
            replacements = materialize_template(netlist, template, cell)
            for port, net in replacements.items():
                arrivals[net.name] = out_arrivals[port]
            self.touched_nets |= retire_cell(netlist, cell, replacements)
            self.template_counts[template.name] = (
                self.template_counts.get(template.name, 0) + 1
            )
            changed += 1
        return changed


def map_netlist(
    netlist: Netlist,
    target: str,
    objective: str = "balanced",
    source_library: Optional[TechLibrary] = None,
    validate: bool = False,
    check_equivalence: bool = True,
    max_iterations: int = 8,
) -> MapReport:
    """Rewrite ``netlist`` in place onto the ``target`` cell basis.

    Parameters
    ----------
    target:
        A target-library name from :data:`repro.map.targets.TARGET_NAMES`
        (``"generic"`` is rejected here — the caller skips mapping instead).
    objective:
        ``"area"`` | ``"delay"`` | ``"balanced"`` template selection.
    source_library:
        The library the netlist was built against; used for the pre-mapping
        area/delay baseline in the report (defaults to ``generic_035``).
    validate:
        Debug mode: structurally validate after every pass invocation.
    check_equivalence:
        Verify the mapped netlist against a pre-mapping snapshot on every
        primary output (bit-parallel, exhaustive for small designs).

    Returns the :class:`~repro.map.report.MapReport`.  Raises
    :class:`MappingError` when the mapped netlist still contains
    out-of-basis cells (an internal invariant violation) or when the basis
    cannot express a needed cell type.
    """
    if target == GENERIC_TARGET:
        raise MappingError(
            "target 'generic' keeps the netlist unmapped; call map_netlist "
            "only for a concrete target library"
        )
    start = time.perf_counter()
    with obs.span("map.netlist", target=target, objective=objective):
        if source_library is None:
            from repro.tech.default_libs import generic_035

            source_library = generic_035()
        library = resolve_target_library(target)
        before = netlist_stats(netlist, source_library)
        delay_before = compute_arrival_times(netlist, source_library).delay

        mapping_pass = TechnologyMappingPass(library, objective=objective)
        manager = PassManager(
            [mapping_pass, CleanupPass(), DeadCellEliminationPass()],
            max_iterations=max_iterations,
            validate=validate,
            check_equivalence=check_equivalence,
            # no library for the manager's own stats: its "before" netlist
            # mixes generic and basis cells, which no single library prices —
            # the report's before/after stats are computed against the right
            # library on either side of the run instead
            library=None,
            opt_level=0,
        )
        opt_report = manager.run(netlist)

        stray = sorted(
            {
                cell.cell_type.value
                for cell in netlist.cells.values()
                if cell.cell_type not in mapping_pass.basis
            }
        )
        if stray:
            raise MappingError(
                f"mapping to {target!r} left out-of-basis cell type(s): {stray}"
            )

        after = netlist_stats(netlist, library)
        delay_after = compute_arrival_times(netlist, library).delay
    return MapReport(
        target_lib=target,
        objective=objective,
        library=library,
        template_counts=dict(mapping_pass.template_counts),
        before=before,
        after=after,
        delay_before=delay_before,
        delay_after=delay_after,
        opt_report=opt_report,
        elapsed_s=time.perf_counter() - start,
    )
