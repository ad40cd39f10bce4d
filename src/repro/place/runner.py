"""The physical-design driver: fabric -> placement -> wires -> clock.

:func:`place_netlist` glues the subsystem together in the order a real
backend runs it: size (or accept) the fabric, pack an initial placement,
refine it with the seeded annealer, hard-validate the result (once), then
derive the downstream physical views — per-net wire delays (fed into
wire-aware static timing), the congestion map and the H-tree clock network.  The
returned :class:`PlaceResult` carries the placement object, the wire-delay
map and the summary :class:`~repro.place.report.PlaceReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from repro.place.cts import build_clock_tree
from repro.place.fabric import FabricGrid, auto_size, site_demand
from repro.place.placer import AnnealStats, Placement, anneal, greedy_initial_placement
from repro.place.report import PlaceReport
from repro.place.validate import check_placement, validate_placement
from repro.place.wires import congestion_map, wire_delays
from repro.tech.library import TechLibrary
from repro.netlist.core import Netlist

#: schema defaults mirrored here so direct API users match the flow
DEFAULT_PLACE_SEED = 1
DEFAULT_PLACE_ITERS = 2000


@dataclass
class PlaceResult:
    """Everything one placement run produced."""

    placement: Placement
    report: PlaceReport
    #: per-net added wire delay (ns), read-only
    net_delays: Mapping[str, float]
    stats: AnnealStats


def place_netlist(
    netlist: Netlist,
    library: Optional[TechLibrary] = None,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
    seed: int = DEFAULT_PLACE_SEED,
    iters: int = DEFAULT_PLACE_ITERS,
) -> PlaceResult:
    """Place ``netlist`` and derive wire delays, congestion and the clock tree.

    ``rows``/``cols`` pin the fabric explicitly (raising
    :class:`~repro.errors.PlaceError` when the netlist does not fit); when
    ``None`` the fabric is auto-sized (:func:`repro.place.fabric.auto_size`).
    ``library`` enables the pre/post-place critical-delay comparison; without
    it the report carries geometry and clock metrics only.
    """
    start = time.perf_counter()
    if rows is None and cols is None:
        fabric = auto_size(netlist)
    else:
        sized = auto_size(netlist)
        fabric = FabricGrid(
            rows=rows if rows is not None else sized.rows,
            cols=cols if cols is not None else sized.cols,
        )
    placement = greedy_initial_placement(netlist, fabric)
    stats = anneal(netlist, placement, seed=seed, iters=iters)
    findings = validate_placement(netlist, placement)
    check_placement(netlist, placement, findings)

    # read-only, so wire-aware STA memoizes on it (see compute_arrival_times)
    delays = MappingProxyType(wire_delays(netlist, placement))
    tree = build_clock_tree(netlist, placement)
    pre_delay = post_delay = None
    if library is not None:
        from repro.timing.arrival import compute_arrival_times

        pre_delay = round(compute_arrival_times(netlist, library).delay, 9)
        post_delay = round(
            compute_arrival_times(netlist, library, net_delays=delays).delay, 9
        )
    report = PlaceReport(
        fabric_rows=fabric.rows,
        fabric_cols=fabric.cols,
        sites_used=site_demand(netlist),
        seed=seed,
        iters=iters,
        moves=stats.moves,
        accepted=stats.accepted,
        initial_hpwl=stats.initial_hpwl,
        total_hpwl=stats.final_hpwl,
        congestion=congestion_map(netlist, placement),
        pre_place_delay_ns=pre_delay,
        post_place_delay_ns=post_delay,
        cts=tree.to_dict(),
        validation_findings=len(findings),
        elapsed_s=time.perf_counter() - start,
    )
    return PlaceResult(
        placement=placement, report=report, net_delays=delays, stats=stats
    )
