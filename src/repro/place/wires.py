"""Wire-length and wire-delay estimation over a placement.

The estimator prices every net by the half-perimeter of its placed pin
bounding box and converts that length into an added net delay with a
linear model (:data:`repro.place.fabric.WIRE_DELAY_NS_PER_SITE` ns per
site pitch).  The resulting per-net delay map plugs straight into
:func:`repro.timing.arrival.compute_arrival_times` via its ``net_delays``
parameter, which is how post-place critical paths come to differ from the
zero-wire pre-place view.

A coarse congestion picture comes from binning the fabric into a small
grid and counting, per bin, how many net bounding boxes overlap it — the
standard probabilistic routing-demand proxy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.core import Netlist
from repro.place.fabric import WIRE_DELAY_NS_PER_SITE
from repro.place.placer import Placement, _bbox, _hpwl, pin_table

#: bins per fabric edge in the congestion map (grid is BINS x BINS)
CONGESTION_BINS = 4

#: hotspots reported (densest bins first)
CONGESTION_HOTSPOTS = 3


def net_lengths(netlist: Netlist, placement: Placement) -> Dict[str, float]:
    """Per-net HPWL in site units (nets with >= 2 placed pins only)."""
    table = pin_table(netlist)
    rows, cols = table.positions(placement)
    return {
        name: round(_hpwl(pins, rows, cols), 6)
        for name, pins in zip(table.net_names, table.net_pins)
    }


def wire_delays(
    netlist: Netlist,
    placement: Placement,
    ns_per_site: float = WIRE_DELAY_NS_PER_SITE,
) -> Dict[str, float]:
    """Added delay per net, in ns: the linear HPWL wire model."""
    return {
        name: round(length * ns_per_site, 9)
        for name, length in net_lengths(netlist, placement).items()
        if length > 0.0
    }


def congestion_map(
    netlist: Netlist,
    placement: Placement,
    bins: int = CONGESTION_BINS,
) -> List[Dict[str, object]]:
    """Routing-demand hotspots: net-bounding-box crossings per fabric bin.

    Returns the :data:`CONGESTION_HOTSPOTS` densest bins as
    ``{"row_bin", "col_bin", "crossings"}`` records, densest first (ties
    broken by bin position, so the report is deterministic).
    """
    fabric = placement.fabric
    bins = max(1, min(bins, fabric.rows, fabric.cols))
    row_scale = bins / fabric.rows
    col_scale = bins / fabric.cols
    counts: Dict[Tuple[int, int], int] = {}
    table = pin_table(netlist)
    rows, cols = table.positions(placement)
    for pins in table.net_pins:
        min_x, max_x, min_y, max_y = _bbox(pins, rows, cols)
        lo_rb = min(int(min_y * row_scale), bins - 1)
        hi_rb = min(int(max_y * row_scale), bins - 1)
        lo_cb = min(int(min_x * col_scale), bins - 1)
        hi_cb = min(int(max_x * col_scale), bins - 1)
        for row_bin in range(lo_rb, hi_rb + 1):
            for col_bin in range(lo_cb, hi_cb + 1):
                counts[(row_bin, col_bin)] = counts.get((row_bin, col_bin), 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"row_bin": row_bin, "col_bin": col_bin, "crossings": crossings}
        for (row_bin, col_bin), crossings in ranked[:CONGESTION_HOTSPOTS]
    ]
