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

from typing import Dict, List

from repro.netlist.core import Netlist
from repro.place.fabric import WIRE_DELAY_NS_PER_SITE
from repro.place.placer import Placement, net_boxes, net_hpwls, pin_table

#: bins per fabric edge in the congestion map (grid is BINS x BINS)
CONGESTION_BINS = 4

#: hotspots reported (densest bins first)
CONGESTION_HOTSPOTS = 3


def net_lengths(netlist: Netlist, placement: Placement) -> Dict[str, float]:
    """Per-net HPWL in site units (nets with >= 2 placed pins only)."""
    table = pin_table(netlist)
    lengths = net_hpwls(table, *table.positions(placement))
    # few distinct lengths recur over many nets: round each once
    rounded = {length: round(length, 6) for length in set(lengths)}
    return {name: rounded[length] for name, length in zip(table.net_names, lengths)}


def wire_delays(
    netlist: Netlist,
    placement: Placement,
    ns_per_site: float = WIRE_DELAY_NS_PER_SITE,
) -> Dict[str, float]:
    """Added delay per net, in ns: the linear HPWL wire model."""
    lengths = net_lengths(netlist, placement)
    delay_of = {length: round(length * ns_per_site, 9) for length in set(lengths.values())}
    return {name: delay_of[length] for name, length in lengths.items() if length > 0.0}


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
    last = bins - 1
    # each box adds one to a rectangle of bins: mark its four corners in a
    # (bins + 1)^2 difference grid, then prefix-sum the grid into counts
    stride = bins + 1
    corners = [0] * (stride * stride)
    table = pin_table(netlist)
    for min_x, max_x, min_y, max_y in net_boxes(table, *table.positions(placement)):
        # bin spans, clamped to the last bin (conditionals, not min(): this
        # runs once per net)
        low = int(min_y * row_scale)
        high = int(max_y * row_scale)
        left = int(min_x * col_scale)
        right = int(max_x * col_scale)
        low = (low if low < last else last) * stride
        high = ((high if high < last else last) + 1) * stride
        left = left if left < last else last
        right = (right if right < last else last) + 1
        corners[low + left] += 1
        corners[low + right] -= 1
        corners[high + left] -= 1
        corners[high + right] += 1
    ranked = []
    above = [0] * bins
    for row_bin in range(bins):
        running = 0
        for col_bin in range(bins):
            running += corners[row_bin * stride + col_bin]
            above[col_bin] += running
            if above[col_bin]:
                ranked.append((-above[col_bin], row_bin, col_bin))
    ranked.sort()
    return [
        {"row_bin": row_bin, "col_bin": col_bin, "crossings": -negated}
        for negated, row_bin, col_bin in ranked[:CONGESTION_HOTSPOTS]
    ]
