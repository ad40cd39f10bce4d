"""Rendered paper tables and ``compare`` output, pinned byte for byte.

``tests/golden/paper_exact.json`` pins the records behind the tables; the
files under ``tests/golden/tables/`` pin the text the CLI renders from them:

- ``table1.txt`` — ``repro-datapath table1`` stdout (every Table-1 design);
- ``table2.txt`` — ``repro-datapath table2`` stdout (every Table-2 design);
- ``compare_x2_O2.txt`` — ``compare --design x2 --methods fa_aot wallace
  --opt 2`` stdout.

Regenerate with ``PYTHONPATH=src python tests/test_table_golden.py --bless``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "tables"

#: golden file name -> CLI argv whose stdout it holds
COMMANDS = {
    "table1.txt": ["table1"],
    "table2.txt": ["table2"],
    "compare_x2_O2.txt": [
        "compare", "--design", "x2", "--methods", "fa_aot", "wallace", "--opt", "2",
    ],
}


def render(argv) -> str:
    """The stdout of one in-process CLI invocation."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_rendered_output_matches_golden(name):
    assert render(COMMANDS[name]) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: python tests/test_table_golden.py --bless")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN_DIR / name).write_text(render(argv), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}")
