"""``--help`` output of every CLI command, pinned byte for byte.

The golden ``tests/golden/cli_help.txt`` holds the help text of the
top-level parser and of every subcommand (the ``obs`` family included),
each under a ``==== <command path>`` header.  Help text is rendered at a
fixed 80-column width so the terminal does not matter.

Regenerate with ``PYTHONPATH=src python tests/test_cli_help.py --bless``.
"""

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_help.txt"

#: the width help is rendered at (argparse reads ``$COLUMNS``)
COLUMNS = "80"


def _command_paths(parser, prefix=()):
    """Every command path of ``parser``, depth first, the root first."""
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _command_paths(subparser, prefix + (name,))


def render_help() -> str:
    """The ``--help`` text of every command, as :data:`GOLDEN` stores it."""
    from repro.cli import build_parser, main

    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        chunks = []
        for path in _command_paths(build_parser()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    main([*path, "--help"])
                except SystemExit as exc:
                    assert exc.code == 0, (path, exc.code)
            chunks.append(f"==== {' '.join(('repro-datapath',) + path)}\n{out.getvalue()}")
        return "".join(chunks)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def test_help_matches_golden():
    assert render_help() == GOLDEN.read_text(encoding="utf-8")


def test_golden_covers_obs_family():
    text = GOLDEN.read_text(encoding="utf-8")
    for command in ("synth", "verify", "obs", "obs events-check", "obs tail"):
        assert f"==== repro-datapath {command}\n" in text


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        raise SystemExit("usage: test_cli_help.py --bless")
    GOLDEN.write_text(render_help(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
