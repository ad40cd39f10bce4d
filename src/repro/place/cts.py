"""H-tree clock-tree synthesis over the occupied fabric region.

Every placed cell is a clock sink (the register that would latch its
output in a pipelined deployment of the datapath).  The builder grows a
recursive H-tree: starting from the center of the sink bounding box it
repeatedly bisects the sink population at the median of the wider axis,
routing a trunk from the parent tap to each half's centroid and inserting
one clock buffer per branching level, until a leaf holds at most
:data:`LEAF_SINKS` sinks, which are then stubbed directly.

Insertion delay of a sink is the accumulated wire delay (Manhattan length
x :data:`~repro.place.fabric.CLOCK_WIRE_DELAY_NS_PER_SITE`) plus the
buffer delays along its path; the worst-case *skew* is the spread between
the latest and earliest sink.  Everything is derived from the placement
alone, so the tree is deterministic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.netlist.core import Netlist
from repro.place.fabric import CLOCK_BUFFER_DELAY_NS, CLOCK_WIRE_DELAY_NS_PER_SITE
from repro.place.placer import Placement, pin_table

#: maximum sinks served directly from one leaf tap
LEAF_SINKS = 4


@dataclass
class ClockTree:
    """The synthesized H-tree: per-sink insertion delays and the skew."""

    sinks: int = 0
    levels: int = 0
    total_wire: float = 0.0
    insertion_delays: Dict[str, float] = field(default_factory=dict)

    @property
    def max_insertion_delay(self) -> float:
        return max(self.insertion_delays.values(), default=0.0)

    @property
    def min_insertion_delay(self) -> float:
        return min(self.insertion_delays.values(), default=0.0)

    @property
    def skew(self) -> float:
        """Worst-case skew: latest minus earliest sink arrival."""
        return self.max_insertion_delay - self.min_insertion_delay

    def to_dict(self) -> Dict[str, object]:
        """Summary record (per-sink delays stay on the object)."""
        return {
            "sinks": self.sinks,
            "levels": self.levels,
            "total_wire": round(self.total_wire, 6),
            "max_insertion_delay_ns": round(self.max_insertion_delay, 9),
            "skew_ns": round(self.skew, 9),
        }


def build_clock_tree(netlist: Netlist, placement: Placement) -> ClockTree:
    """Synthesize the H-tree for every placed cell of ``netlist``.

    Sinks are numbered like the netlist's :class:`~repro.place.placer.PinTable`
    (name order).  Each is sorted once per axis, by coordinate and then
    name; a subtree carries both orders, and splitting one keeps the other
    as the subsequence of the matching half, so no subtree is re-sorted.
    """
    table = pin_table(netlist)
    rows, cols = table.positions(placement)
    names = table.cells
    # clock entry point of every placed cell: the footprint center
    xs = [col + width / 2.0 for col, width in zip(cols, table.widths)]
    ys = [row + 0.5 for row in rows]
    tree = ClockTree(sinks=len(names))
    if not names:
        return tree
    root = ((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0)
    sink_ids = range(len(names))
    by_x = sorted(sink_ids, key=list(zip(xs, names)).__getitem__)
    by_y = sorted(sink_ids, key=list(zip(ys, names)).__getitem__)

    x_of, y_of = xs.__getitem__, ys.__getitem__
    # every subtree order is a subsequence of the full sort, so a sink falls
    # in the low half of a split exactly when its rank in the full order is
    # below the median's: one rank array per axis serves every split
    rank_x = [0] * len(names)
    rank_y = [0] * len(names)
    for rank, (i, j) in enumerate(zip(by_x, by_y)):
        rank_x[i] = rank
        rank_y[j] = rank
    insertion_delays = tree.insertion_delays

    def recurse(
        tap: Tuple[float, float],
        points: List[int],
        by_x: List[int],
        by_y: List[int],
        delay: float,
        depth: int,
    ) -> None:
        if depth > tree.levels:
            tree.levels = depth
        tap_x, tap_y = tap
        if len(points) <= LEAF_SINKS:
            for i in points:
                stub = abs(xs[i] - tap_x) + abs(ys[i] - tap_y)
                tree.total_wire += stub
                insertion_delays[names[i]] = round(
                    delay + stub * CLOCK_WIRE_DELAY_NS_PER_SITE, 9
                )
            return
        # bisect at the median of the wider axis (the H-tree alternation
        # emerges naturally: splitting shrinks that axis for the children)
        split_x = xs[by_x[-1]] - xs[by_x[0]] >= ys[by_y[-1]] - ys[by_y[0]]
        ordered, other, rank = (
            (by_x, by_y, rank_x) if split_x else (by_y, by_x, rank_y)
        )
        half = len(ordered) // 2
        low, high = ordered[:half], ordered[half:]
        median = rank[high[0]]
        low_other = [i for i in other if rank[i] < median]
        high_other = [i for i in other if rank[i] >= median]
        for part, part_other in ((low, low_other), (high, high_other)):
            size = len(part)
            child = (sum(map(x_of, part)) / size, sum(map(y_of, part)) / size)
            trunk = abs(child[0] - tap_x) + abs(child[1] - tap_y)
            tree.total_wire += trunk
            recurse(
                child,
                part,
                part if split_x else part_other,
                part_other if split_x else part,
                delay + trunk * CLOCK_WIRE_DELAY_NS_PER_SITE + CLOCK_BUFFER_DELAY_NS,
                depth + 1,
            )

    recurse(root, list(sink_ids), by_x, by_y, 0.0, 0)
    tree.total_wire = round(tree.total_wire, 6)
    return tree
