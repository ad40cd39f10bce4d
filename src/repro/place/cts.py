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
    by_x = sorted(sink_ids, key=lambda i: (xs[i], names[i]))
    by_y = sorted(sink_ids, key=lambda i: (ys[i], names[i]))

    def centroid(points: List[int]) -> Tuple[float, float]:
        return (
            sum(xs[i] for i in points) / len(points),
            sum(ys[i] for i in points) / len(points),
        )

    def recurse(
        tap: Tuple[float, float],
        points: List[int],
        by_x: List[int],
        by_y: List[int],
        delay: float,
        depth: int,
    ) -> None:
        tree.levels = max(tree.levels, depth)
        if len(points) <= LEAF_SINKS:
            for i in points:
                stub = abs(xs[i] - tap[0]) + abs(ys[i] - tap[1])
                tree.total_wire += stub
                tree.insertion_delays[names[i]] = round(
                    delay + stub * CLOCK_WIRE_DELAY_NS_PER_SITE, 9
                )
            return
        # bisect at the median of the wider axis (the H-tree alternation
        # emerges naturally: splitting shrinks that axis for the children)
        split_x = xs[by_x[-1]] - xs[by_x[0]] >= ys[by_y[-1]] - ys[by_y[0]]
        ordered, other = (by_x, by_y) if split_x else (by_y, by_x)
        half = len(ordered) // 2
        low = set(ordered[:half])
        halves = (
            (ordered[:half], [i for i in other if i in low]),
            (ordered[half:], [i for i in other if i not in low]),
        )
        for part, part_other in halves:
            child = centroid(part)
            trunk = abs(child[0] - tap[0]) + abs(child[1] - tap[1])
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
