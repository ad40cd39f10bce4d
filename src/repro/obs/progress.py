"""Live progress rendering: paint the run's event fold as a status line.

:class:`ProgressRenderer` is an :class:`~repro.obs.events.EventFold` —
the one fold behind every run tally (points done/total, failures, cache
hits, stall/retry counts, fresh point times) — plus the in-flight points
per worker and the painting: it repaints a single ``\\r``-terminated
stderr line on every event, so a ``--live`` sweep shows throughput and
ETA instead of a silent pause.  A log record written while the line is
live starts on a clean line, and the line is repainted after it
(:data:`repro.obs.logbridge.live_line`).  On ``run_end`` it clears the
line and prints a deterministic summary table (counts only, no timings
in the cells that matter for eyeballing diffs).

The renderer is deliberately dumb about *sources*: it reacts only to
events, so it works identically for serial sweeps (events from the main
pid) and parallel ones (dispatcher events; worker heartbeats arrive via
the file, not in-process, and are simply never seen — the dispatcher's
own events carry all state the line needs).
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from typing import Dict, Optional

from repro.obs import logbridge
from repro.obs.events import EventFold
from repro.utils.tables import TextTable

#: cap on how many in-flight point labels the live line shows
_MAX_RUNNING_SHOWN = 3


class ProgressRenderer(EventFold):
    """Subscriber turning an event stream into a live stderr status line."""

    def __init__(self, stream=None, live: bool = True) -> None:
        super().__init__()
        self.stream = stream if stream is not None else sys.stderr
        self.live = live
        self.running: Dict[int, str] = {}
        self._line_width = 0
        self._finished = False

    def handle(self, event: dict) -> None:
        """EventBus subscriber entry point: fold, track, repaint."""
        super().handle(event)
        kind = event.get("kind")
        attrs = event.get("attrs", {})
        index = attrs.get("index")
        if kind == "point_start":
            if isinstance(index, int) and not attrs.get("cached"):
                self.running[index] = str(attrs.get("point", index))
        elif kind in ("point_end", "retry"):
            if isinstance(index, int):
                self.running.pop(index, None)
        elif kind == "run_end":
            self.finish()
            return
        if self.live and not self._finished:
            self.paint()

    # -- rendering ----------------------------------------------------

    def median_s(self) -> Optional[float]:
        if not self.durations:
            return None
        return statistics.median(self.durations)

    def status_line(self) -> str:
        total = "?" if self.total is None else str(self.total)
        parts = [f"[{self.done}/{total}]", f"ok={self.ok}", f"fail={self.failed}"]
        if self.done:
            rate = 100.0 * self.cached / self.done
            parts.append(f"cached={self.cached} ({rate:.0f}%)")
        median = self.median_s()
        if median is not None:
            parts.append(f"med={median:.2f}s")
            if self.total is not None:  # ETA: median x points left
                parts.append(f"eta={median * max(0, self.total - self.done):.0f}s")
        if self.stalls or self.retries:
            parts.append(f"stalls={self.stalls} retries={self.retries}")
        if self.running:
            labels = [self.running[i] for i in sorted(self.running)]
            shown = ",".join(labels[:_MAX_RUNNING_SHOWN])
            if len(labels) > _MAX_RUNNING_SHOWN:
                shown += f",+{len(labels) - _MAX_RUNNING_SHOWN}"
            parts.append(f"running:{shown}")
        return " ".join(parts)

    def paint(self) -> None:
        """(Re)paint the status line; log records step around it meanwhile."""
        line = self.status_line()
        padded = line.ljust(self._line_width)
        self._line_width = max(self._line_width, len(line))
        try:
            self.stream.write("\r" + padded)
            self.stream.flush()
        except (OSError, ValueError):  # closed stream: stop painting
            self.live = False
        logbridge.live_line = self if self.live else None

    def clear(self) -> None:
        """Blank the status line, leaving the cursor at its start."""
        with contextlib.suppress(OSError, ValueError):
            self.stream.write("\r" + " " * self._line_width + "\r")

    def summary_table(self) -> str:
        """Deterministic final roll-up (stable for a given outcome set)."""
        table = TextTable(["metric", "value"])
        total = self.total if self.total is not None else self.done
        table.add_row(["points", total])
        table.add_row(["completed", self.done])
        table.add_row(["ok", self.ok])
        table.add_row(["failed", self.failed])
        table.add_row(["cache hits", self.cached])
        table.add_row(["fresh", self.done - self.cached])
        table.add_row(["stalls", self.stalls])
        table.add_row(["retries", self.retries])
        return table.render(title="live telemetry")

    def finish(self) -> None:
        """Clear the live line and print the final summary table."""
        if self._finished:
            return
        self._finished = True
        logbridge.live_line = None
        try:
            if self.live and self._line_width:
                self.clear()
            if self.done:
                self.stream.write(self.summary_table() + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
