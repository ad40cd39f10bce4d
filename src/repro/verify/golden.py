"""Metric regression harness: tolerance-band golden snapshots.

Functional equivalence says a netlist is *correct*; it says nothing about
the reported numbers staying *stable*.  This harness pins the headline
metrics (delay, area, energy, cell counts) of a small fixed set of flow
configurations to a committed JSON snapshot under ``tests/golden/metrics/``
and reports drift:

* integer metrics (cell/FA/HA counts) must match exactly;
* float metrics must stay within a relative tolerance band (the committed
  snapshot records its own tolerance, so tightening the band is a one-line
  blessed change) — the same per-design comparison the run-history
  sentinel makes (:func:`repro.obs.history.qor_drift`);
* snapshot entries and current runs must cover the same configurations —
  a missing or extra entry is drift too (the snapshot must be re-blessed
  when the golden set changes).

``repro-datapath verify --bless`` (or :func:`bless_golden`) rewrites the
snapshot from the current run; the file is deterministic bytes (sorted
keys, fixed indentation) so blessing is an auditable one-file diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.api.config import FlowConfig
from repro.errors import VerificationError
from repro.explore.engine import run_sweep
from repro.explore.spec import SweepPoint
from repro.obs.history import qor_drift, qor_entry

GOLDEN_SCHEMA = "repro.verify.golden-metrics"
GOLDEN_SCHEMA_VERSION = 1

#: snapshot location inside the repository
_GOLDEN_RELATIVE = Path("tests") / "golden" / "metrics" / "metrics.json"


def _default_golden_path() -> str:
    """The committed snapshot, anchored to the repository this code runs from.

    ``src/repro/verify/golden.py`` sits three levels below the repository
    root, so the checkout layout resolves independently of the current
    working directory (``repro-datapath verify`` works from anywhere).  For
    an installed package with no repository around it, fall back to the
    cwd-relative spelling — ``--golden`` / ``--bless`` remain the explicit
    escape hatch.
    """
    root = Path(__file__).resolve().parents[3]
    anchored = root / _GOLDEN_RELATIVE
    if anchored.parent.is_dir() or (root / "pyproject.toml").is_file():
        return str(anchored)
    return str(_GOLDEN_RELATIVE)


DEFAULT_GOLDEN_PATH = _default_golden_path()

#: default relative tolerance band for float metrics (recorded per snapshot)
DEFAULT_REL_TOL = 0.02

#: designs pinned by the snapshot: the smallest benchmark, a multi-operand
#: polynomial and a real filter, covering squarer, adder and MAC structure
GOLDEN_DESIGNS = ("x2", "x2_plus_x_plus_y", "iir")

#: per-design methods pinned at -O0 (the paper's Table 1 trio)
GOLDEN_METHODS = ("conventional", "csa_opt", "fa_aot")


def golden_points() -> List["SweepPoint"]:
    """The fixed configuration set pinned by the snapshot.

    Per design: the Table 1 method trio as built, plus ``fa_aot`` at
    ``-O2`` so optimizer regressions show up in the metrics as well, plus
    ``fa_aot`` placed on the auto-sized fabric so placement QoR (HPWL,
    wire-aware delay, CTS skew) is pinned too.
    """
    points: List[SweepPoint] = []
    for design in GOLDEN_DESIGNS:
        for method in GOLDEN_METHODS:
            points.append(SweepPoint.from_config(design, FlowConfig(method=method)))
        points.append(
            SweepPoint.from_config(design, FlowConfig(method="fa_aot", opt_level=2))
        )
        points.append(
            SweepPoint.from_config(design, FlowConfig(method="fa_aot", place=True))
        )
    return points


def run_golden_points(
    jobs: int = 1,
) -> Tuple[Dict[str, Dict[str, object]], bool]:
    """Synthesize the golden set (on the sweep workers) and snapshot the metrics.

    Returns ``(entries, used_fallback)`` — the fallback flag records that
    no worker process could be started, like every other phase.
    """
    sweep = run_sweep(golden_points(), jobs=jobs)
    if not sweep.ok:
        failures = "; ".join(
            f"{outcome.point.label()}: {outcome.error}" for outcome in sweep.failures
        )
        raise VerificationError(f"golden-point synthesis failed: {failures}")
    entries: Dict[str, Dict[str, object]] = {}
    for outcome in sweep.outcomes:
        entries[outcome.point.label()] = qor_entry(outcome.metrics)
    return entries, sweep.used_fallback


def load_golden(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The parsed snapshot, or ``None`` when no (valid) snapshot exists."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if (
        not isinstance(data, dict)
        or data.get("schema") != GOLDEN_SCHEMA
        or data.get("schema_version") != GOLDEN_SCHEMA_VERSION
        or not isinstance(data.get("entries"), dict)
    ):
        return None
    return data


def bless_golden(
    entries: Dict[str, Dict[str, object]],
    path: Union[str, Path],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Path:
    """Write ``entries`` as the new snapshot (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": GOLDEN_SCHEMA,
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "tolerance": {"rel": rel_tol},
        "entries": entries,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def compare_to_golden(
    entries: Dict[str, Dict[str, object]],
    golden: Dict[str, object],
) -> List[str]:
    """Drift messages between a current run and a snapshot (empty = stable)."""
    rel_tol = float(golden.get("tolerance", {}).get("rel", DEFAULT_REL_TOL))
    pinned: Dict[str, Dict[str, object]] = golden["entries"]  # type: ignore[assignment]
    drift: List[str] = []
    for label in sorted(set(pinned) - set(entries)):
        drift.append(f"{label}: pinned in the snapshot but not produced by this run")
    for label in sorted(set(entries) - set(pinned)):
        drift.append(f"{label}: produced by this run but missing from the snapshot")
    for label in sorted(set(pinned) & set(entries)):
        drift.extend(
            f"{label}: {message}"
            for *_values, message in qor_drift(pinned[label], entries[label], rel_tol)
        )
    return drift


def run_golden(
    path: Union[str, Path] = DEFAULT_GOLDEN_PATH,
    jobs: int = 1,
    bless: bool = False,
) -> Dict[str, object]:
    """Run the golden set and compare (or bless); returns a JSON-able record."""
    entries, used_fallback = run_golden_points(jobs=jobs)
    record: Dict[str, object] = {
        "path": str(path),
        "checked": len(entries),
        "blessed": False,
        "used_fallback": used_fallback,
        "drift": [],
        "ok": True,
    }
    if bless:
        bless_golden(entries, path)
        record["blessed"] = True
        return record
    golden = load_golden(path)
    if golden is None:
        record["ok"] = False
        record["drift"] = [
            f"no valid golden snapshot at {path}; run `repro-datapath verify "
            f"--bless` to create one"
        ]
        return record
    drift = compare_to_golden(entries, golden)
    record["drift"] = drift
    record["ok"] = not drift
    return record
