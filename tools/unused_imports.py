#!/usr/bin/env python
"""Report imported names that a module never uses.

A name bound by an ``import`` counts as used when it appears anywhere in
its module, including inside a string annotation (``"SweepPoint"``,
``List["Netlist"]``).  Exempt are ``__init__.py`` files (they re-export),
``from __future__`` imports, names listed in ``__all__`` and every name of
an import statement with a ``# noqa: F401`` comment on one of its lines.
Uses the stdlib ``ast`` only::

    python tools/unused_imports.py      # src/repro, tools, tests, examples
    python tools/unused_imports.py path/to/file.py dir/

Prints one ``path:line: name`` per finding and exits 1 if there are any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_PATHS = tuple(ROOT / path for path in ("src/repro", "tools", "tests", "examples"))


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every annotation expression of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> Set[str]:
    """Names read anywhere in ``tree``, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    pending = list(_annotations(tree))
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
                pending.append(parsed.body)
    return used


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for item in ast.walk(node.value) if node.value is not None else ():
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        names.add(item.value)
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every unused imported name of ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree) | _exported(tree)
    findings: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        statement = lines[node.lineno - 1 : (node.end_lineno or node.lineno)]
        if any("# noqa: F401" in line for line in statement):
            continue
        findings.extend((node.lineno, name) for name in bound if name not in used)
    return sorted(findings)


def _files(paths: List[Path]) -> Iterator[Path]:
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        yield from (p for p in candidates if p.name != "__init__.py")


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(arg) for arg in args] if args else list(DEFAULT_PATHS)
    count = 0
    for path in _files(paths):
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            print(f"{path}:{line}: {name}")
            count += 1
    return 1 if count else 0


if __name__ == "__main__":
    raise SystemExit(main())
