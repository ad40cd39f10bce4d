#!/usr/bin/env python
"""Count the code lines of ``src/repro``, per package and in total.

A code line is one that is neither blank nor comment-only; lines of a
docstring count as code (its blank lines do not).  Each package is one
row, a top-level module such as ``cli.py`` is a row of its own.  Uses the
stdlib tokenizer only, so it runs without the package on ``sys.path``::

    python tools/loc.py                 # src/repro of this checkout
    python tools/loc.py path/to/repro   # any other source tree

CI prints it for information; no gate reads it.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional

#: tokens that never make a line a code line
NON_CODE = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    )
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def code_lines(source: str) -> int:
    """Lines of ``source`` that are neither blank nor comment-only."""
    lines = source.splitlines()
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            covered.update(range(token.start[0], token.end[0] + 1))
    return sum(1 for number in covered if lines[number - 1].strip())


def count_tree(root: Path) -> Dict[str, int]:
    """Code lines per package (or top-level module) below ``root``."""
    counts: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        key = parts[0] if len(parts) > 1 else path.name
        counts[key] = counts.get(key, 0) + code_lines(path.read_text(encoding="utf-8"))
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else SRC
    counts = count_tree(root)
    for key, lines in counts.items():
        print(f"{key:<16} {lines:6d}")
    print(f"{'total':<16} {sum(counts.values()):6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
