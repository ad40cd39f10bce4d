"""The command bodies of the CLI, imported when their command runs.

:mod:`repro.cli` builds the parser and dispatches; it names each handler
by module and function, and imports the module only when that command
runs, so ``import repro.cli`` and ``--help`` compile no command body:

* :mod:`repro.commands.flow` — ``list-designs``, ``synth``, ``compare``,
  ``table1`` / ``table2``, ``explore`` and ``verify``;
* :mod:`repro.commands.obs` — the ``obs`` family.

A handler takes the parsed :class:`argparse.Namespace` and returns the
exit code.  This module holds the two helpers both families (and the
dispatcher) share.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional

# a name, not ``from repro import obs``: importing the submodule
# ``repro.commands.obs`` rebinds ``obs`` in this namespace
from repro.obs import HISTORY_ENV


def write_json_payload(payload: object, target: str) -> None:
    """Write a JSON payload to a file, or to stdout when the target is '-'."""
    text = json.dumps(payload, indent=2)
    if target == "-":
        print(text)
    else:
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise SystemExit(f"cannot write JSON to {target}: {exc}")
        print(f"wrote JSON to {target}")


def history_dir_of(args: argparse.Namespace) -> Optional[str]:
    """The history store directory of this invocation, or ``None``."""
    return getattr(args, "history", None) or os.environ.get(HISTORY_ENV) or None
