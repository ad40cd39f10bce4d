"""Resource gauges: current RSS and CPU time of the running process.

The live telemetry bus (:mod:`repro.obs.events`) periodically emits
``resource`` gauge events so a long sweep's memory/CPU footprint is
visible *while it runs* — a worker whose RSS climbs toward the container
limit is caught before the OOM killer reports it post-mortem.

Everything here is stdlib-only: the current RSS is read from
``/proc/self/statm`` (Linux), falling back to ``/proc/self/status`` and
finally to the *peak* RSS from ``resource.getrusage`` on platforms
without procfs.  :func:`repro.obs.events.resource_sampling` and
:func:`repro.obs.events.point_heartbeat` turn :func:`sample_resources`
snapshots into periodic bus events.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.obs.manifest import peak_rss_bytes

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> Optional[int]:
    """Current resident set size of this process, or ``None`` when unknown.

    ``/proc/self/statm`` field 2 is resident pages; ``/proc/self/status``
    carries ``VmRSS`` in kB.  On platforms with neither (macOS, Windows)
    the *peak* RSS from ``getrusage`` stands in — a monotone upper bound
    is still a useful gauge.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    return peak_rss_bytes()


def cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process (children excluded)."""
    times = os.times()
    return round(times.user + times.system, 6)


def sample_resources() -> Dict[str, object]:
    """One resource snapshot: the ``attrs`` payload of a ``resource`` event."""
    return {
        "rss_bytes": rss_bytes(),
        "peak_rss_bytes": peak_rss_bytes(),
        "cpu_s": cpu_seconds(),
    }

