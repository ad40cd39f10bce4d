"""Host calibration and the statistics every metric is reported with.

Timed metrics are divided by the run time of :func:`calibration_kernel`, a
fixed piece of pure-Python work that touches no program object.  The kernel
is timed with the garbage collector paused, so the size of the program's
heap cannot change its speed, and it is interleaved with the measured work
in the same process, so a slow phase of a shared host slows the kernel and
the flows alike.  One kernel run is the unit ``cal``.
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time
from typing import List, Sequence

#: iterations of the kernel's main loop; one run takes ~120 ms on a
#: 2.1 GHz Xeon VM core
KERNEL_N = 40_000

#: distinct dict keys: one per iteration, so the kernel's working set
#: (~10 MB) lies mostly out of the CPU caches, as a flow's does.  A kernel
#: that fits in cache swings with host load out of step with the flows.
KERNEL_KEYS = 40_009

#: percentiles the tail metric may report, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

#: the tail needs at least this many samples beyond its percentile
TAIL_BEYOND = 10

#: fewest samples any rung of the ladder (p50) needs
MIN_SAMPLES = 2 * TAIL_BEYOND


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int, weight: int, next_node: "_Node") -> None:
        self.key = key
        self.weight = weight
        self.next = next_node

    def total(self) -> int:
        return self.key + self.weight


def calibration_kernel() -> int:
    """Fixed pure-Python work mixing the operations a flow spends time on.

    Dict lookups and inserts, attribute reads, method calls, small tuples,
    list appends, string building and a sort; the result is returned so no
    step can be skipped.
    """
    buckets = {}
    head = None
    acc = 0
    for i in range(KERNEL_N):
        key = (i * 7919) % KERNEL_KEYS
        slot = buckets.get(key)
        if slot is None:
            buckets[key] = slot = []
        slot.append((i, key & 7))
        head = _Node(key, i & 15, head)
        acc += head.total() + len(str(key))
    for key in sorted(buckets, key=lambda k: (len(buckets[k]), k)):
        for value, low in buckets[key]:
            acc ^= value + low
    while head is not None:
        acc += head.weight
        head = head.next
    return acc


def time_kernel() -> float:
    """Seconds one :func:`calibration_kernel` run takes, gc paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class KernelClock:
    """Times the kernel on ``jobs`` cores at once: here and in ``jobs - 1`` helpers.

    A workload that keeps ``jobs`` worker processes busy is calibrated by as
    many kernels running side by side, so a host that slows parallel work
    more than serial work slows both alike.  The helpers are plain child
    interpreters running this file, started once; each times one kernel per
    ``run`` line on its standard input and stops at ``stop`` or end of input.
    :meth:`close` stops them and waits for each to end.
    """

    def __init__(self, jobs: int = 1) -> None:
        self._helpers: List[subprocess.Popen] = []
        try:
            for _ in range(jobs - 1):
                self._helpers.append(
                    subprocess.Popen(
                        [sys.executable, __file__],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self.close()
            raise

    def time(self) -> float:
        """Mean seconds of one kernel run per core, all cores at once."""
        for helper in self._helpers:
            helper.stdin.write("run\n")
            helper.stdin.flush()
        own = time_kernel()
        return statistics.fmean([own] + [float(h.stdout.readline()) for h in self._helpers])

    def close(self) -> None:
        for helper in self._helpers:
            try:
                helper.stdin.write("stop\n")
                helper.stdin.close()
            except OSError:  # the helper is gone already
                pass
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []


def _helper() -> None:
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(time_kernel(), flush=True)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def harrell_davis(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th quantile (0 < p < 1) of ``values``.

    A mean of the sorted values in which rank ``i`` of ``n`` weighs the mass
    a Beta(p(n+1), (1-p)(n+1)) distribution puts on ``[i/n, (i+1)/n]``.
    Where the values cluster (every repeat of one cell close together) and
    the percentile falls in a gap between clusters, the sample percentile
    jumps across the gap with the smallest change in noise; this estimate
    moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 8  # midpoint-rule points per rank
    logs = [
        (a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
        for u in ((i + (k + 0.5) / steps) / n for i in range(n) for k in range(steps))
    ]
    top = max(logs)
    mass = [math.exp(v - top) for v in logs]
    weights = [sum(mass[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie above the ``p``-th percentile position."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` of ``n`` samples beyond it.

    A workload fixes ``n`` as the unit count every run reaches, so its tail
    is the same percentile in every run, however fast the host.
    """
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} samples are too few for a tail (need {MIN_SAMPLES})")


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


if __name__ == "__main__":
    _helper()
