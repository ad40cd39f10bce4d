"""On-disk result cache for sweep points.

Each cached entry is one small JSON file named after the point's content
digest, holding the point (for collision checking and debuggability) and the
metric summary produced by :meth:`FlowResult.to_dict` — never a pickled
netlist, so cache files are stable across code changes to the netlist layer
and safe to share between machines.

``CACHE_SCHEMA_VERSION`` is part of every entry; bumping it invalidates all
existing entries at once (old files are simply treated as misses).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.explore.spec import SweepPoint

#: bump when the record layout or the meaning of a metric changes
#: (v2: points and records carry the ``opt_level`` optimization axis;
#: v3: points derive from the FlowConfig schema — canonical ``cache_key``
#: identity, plus the ``multiplier_style`` / ``fold_square_products`` /
#: ``analyses`` knobs; records embed the full ``config`` dict;
#: v4: the ``target_lib`` / ``map_objective`` technology-mapping axes, and
#: records embed the ``map_report`` summary).  Entries written by an older
#: schema are treated as plain misses, never errors.
CACHE_SCHEMA_VERSION = 5


class ResultCache:
    """Content-addressed JSON store of per-point metric summaries."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, point: SweepPoint) -> Path:
        return self.directory / f"{point.digest()}.json"

    def get(self, point: SweepPoint) -> Optional[Dict[str, object]]:
        """Metrics for ``point`` if cached (and valid), else ``None``."""
        path = self._path(point)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema_version") != CACHE_SCHEMA_VERSION
            or entry.get("key") != point.key()
            or not isinstance(entry.get("metrics"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry["metrics"]

    def put(
        self,
        point: SweepPoint,
        metrics: Dict[str, object],
        telemetry: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Store ``metrics`` for ``point`` (atomic write, last writer wins).

        ``telemetry`` is stored beside the metrics, outside the cache
        contract: :meth:`get` never returns it.  The sweep engine passes
        none; the keyword stays for wrappers of :meth:`put` that forward
        it (``flowbench``'s timed cache).
        """
        path = self._path(point)
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": point.key(),
            "point": point.to_dict(),
            "metrics": metrics,
        }
        if telemetry is not None:
            entry["telemetry"] = telemetry
        # write-then-rename so concurrent sweeps never observe partial files
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".tmp-")
        )

    def stats(self) -> str:
        """One-line hit/miss summary for reports."""
        return f"cache: {self.hits} hits, {self.misses} misses ({self.directory})"
