"""Byte-exact paper-table pin: the reducers and the netlists they build never drift.

Table 1 and Table 2 compare methods by the cells they allocate, so a
reducer that picks the same *number* of FAs but different inputs, or names
its nets differently, would still pass the metric goldens' ±2% band.  This
file pins, for every Table-1 design x method and every Table-2 design x
power method x probability seed, a digest of the netlist structure (cell
name, type and port-to-net names, in creation order), a digest of every
column's ``remaining`` and ``carries`` net names in order, and the whole
``FlowResult.to_dict()`` record.

Regenerate (only with a stated reason) with::

    PYTHONPATH=src python tests/test_paper_exact.py --bless
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import Flow, FlowConfig
from repro.designs.registry import TABLE1_DESIGN_NAMES, TABLE2_DESIGN_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden" / "paper_exact.json"

TABLE1_METHODS = ("conventional", "csa_opt", "fa_aot", "wallace", "dadda", "column_isolation")
TABLE2_METHODS = ("fa_random", "fa_alp")
PROBABILITY_SEEDS = (2000, 7)
CASES = [(d, m, None) for d in TABLE1_DESIGN_NAMES for m in TABLE1_METHODS] + [
    (d, m, s) for s in PROBABILITY_SEEDS for d in TABLE2_DESIGN_NAMES for m in TABLE2_METHODS
]


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def paper_fingerprint(design: str, method: str, probability_seed):
    """The exact record of one ``-O0`` paper-table flow."""
    if probability_seed is None:
        config = FlowConfig(method=method)
    else:
        config = FlowConfig(method=method, random_probabilities=True, seed=probability_seed)
    result = Flow(config).run(design)
    structure = [
        [
            cell.name,
            cell.cell_type.value,
            [[port, net.name] for port, net in cell.inputs.items()],
            [[port, net.name] for port, net in cell.outputs.items()],
        ]
        for cell in result.netlist.cells.values()
    ]
    compression = result.compression
    columns = (
        [
            [
                reduction.column,
                [addend.net.name for addend in reduction.remaining],
                [addend.net.name for addend in reduction.carries],
            ]
            for reduction in compression.column_reductions
        ]
        if compression is not None
        else None
    )
    return {
        "netlist_sha256": _digest(structure),
        "columns_sha256": _digest(columns),
        "record": result.to_dict(),
    }


def _key(design: str, method: str, probability_seed) -> str:
    suffix = "" if probability_seed is None else f"/p{probability_seed}"
    return f"{design}/{method}{suffix}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("design, method, probability_seed", CASES)
def test_paper_flow_is_byte_identical_to_golden(golden, design, method, probability_seed):
    expected = golden[_key(design, method, probability_seed)]
    actual = json.loads(json.dumps(paper_fingerprint(design, method, probability_seed)))
    assert actual == expected


if __name__ == "__main__":
    if "--bless" not in sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_paper_exact.py --bless")
    records = {_key(*case): paper_fingerprint(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
