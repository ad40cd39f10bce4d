"""``tools/loc.py``: code lines are neither blank nor comment-only."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tools"))
try:
    import loc
finally:
    sys.path.pop(0)

SOURCE = '''"""Module docstring.

Second paragraph.
"""

# a comment
import os  # trailing comment


def f():
    """Doc."""

    return (os.sep,
            # inside brackets
            os.pathsep)
'''


def test_code_lines_skip_blank_and_comment_only_lines():
    # docstring lines count but its blank line does not; comment-only
    # lines do not count, inside brackets either
    assert loc.code_lines(SOURCE) == 8


def test_count_tree_rows_per_package_and_top_level_module(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "mod.py").write_text(SOURCE)
    (tmp_path / "cli.py").write_text("import sys\n")
    assert loc.count_tree(tmp_path) == {"cli.py": 1, "pkg": 9}
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "10"]
