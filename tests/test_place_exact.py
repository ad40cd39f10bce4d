"""Byte-exact placement pin: the annealer, wires and clock tree never drift.

The metric goldens allow a ±2% band, which a single changed accept
decision slips through.  This file pins, for a small matrix of designs x
target libraries x seeds, the placement report, a digest of the placement
itself, the sorted wire-delay map and the per-sink clock insertion delays
in their dict order — any change to move order, float summation order or
tie-breaking shows up as a mismatch.

Regenerate (only with a stated reason) with::

    PYTHONPATH=src python tests/test_place_exact.py --bless
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import Flow, FlowConfig
from repro.place import build_clock_tree

GOLDEN = Path(__file__).resolve().parent / "golden" / "place_exact.json"

DESIGNS = ("x3", "iir", "square_of_sum")
TARGETS = ("aoi_rich", "nand2_basis", "generic")
SEEDS = (1, 2)
CASES = [(d, t, s) for d in DESIGNS for t in TARGETS for s in SEEDS]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def placement_fingerprint(design: str, target: str, seed: int):
    """The exact-placement record of one ``-O2`` placed flow."""
    config = FlowConfig(
        opt_level=2, target_lib=target, place=True, place_seed=seed,
        analyses=("timing",),
    )
    result = Flow(config).run(design)
    place = result.stage_artifacts["place"]
    tree = build_clock_tree(result.netlist, place.placement)
    return {
        "place_report": result.place_report.to_dict(),
        "placement_sha256": _digest(place.placement.to_dict()),
        "net_delays_sha256": _digest(sorted(place.net_delays.items())),
        "insertion_delays_sha256": _digest(list(tree.insertion_delays.items())),
    }


def _key(design: str, target: str, seed: int) -> str:
    return f"{design}/{target}/s{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("design, target, seed", CASES)
def test_placement_is_byte_identical_to_golden(golden, design, target, seed):
    expected = golden[_key(design, target, seed)]
    actual = json.loads(json.dumps(placement_fingerprint(design, target, seed)))
    assert actual == expected


if __name__ == "__main__":
    if "--bless" not in sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_place_exact.py --bless")
    records = {_key(*case): placement_fingerprint(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
