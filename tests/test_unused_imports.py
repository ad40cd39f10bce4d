"""``tools/unused_imports.py``: imported names a module never uses."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tools"))
try:
    import unused_imports
finally:
    sys.path.pop(0)

SOURCE = '''from __future__ import annotations

import os
import os.path as osp
import json
from typing import TYPE_CHECKING, Dict, List, Optional
from collections import OrderedDict, deque  # noqa: F401
from itertools import (
    chain,  # noqa: F401
    count,
)

if TYPE_CHECKING:
    from pathlib import Path, PurePath

__all__ = ["json"]


def f(items: "List[Path]", extra: Dict[str, "Optional[int]"]) -> None:
    return os.sep
'''


def test_unused_imports_are_reported_with_their_lines():
    assert unused_imports.unused_imports(SOURCE) == [
        (4, "osp"), (14, "PurePath"),
    ]


def test_a_clean_source_has_no_findings():
    assert unused_imports.unused_imports("import os\nprint(os.sep)\n") == []
    assert unused_imports.unused_imports("from os import *\n") == []


def test_main_skips_init_files_and_sets_the_exit_status(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text("import os\n")
    (tmp_path / "clean.py").write_text("import os\nos.sep\n")
    assert unused_imports.main([str(tmp_path)]) == 0
    (tmp_path / "dirty.py").write_text("\nimport sys\n")
    assert unused_imports.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == f"{tmp_path / 'dirty.py'}:2: sys\n"
