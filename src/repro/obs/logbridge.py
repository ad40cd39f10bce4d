"""Stdlib-``logging`` bridge: one logger hierarchy, CLI-controlled verbosity.

Every diagnostic the package emits goes through a logger below the
``"repro"`` root obtained from :func:`get_logger`, so one
:func:`configure_logging` call (wired to ``--log-level`` on every CLI
subcommand) governs all output uniformly — progress lines, serial-fallback
warnings, cache diagnostics, verify phase banners.

As a library, ``repro`` never configures handlers on import: an embedding
application keeps full control of its logging tree.  The CLI (and tests)
opt in explicitly.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

#: the accepted ``--log-level`` values, least to most verbose
LOG_LEVELS = ("error", "warning", "info", "debug")

#: the root of the package's logger hierarchy
ROOT_LOGGER_NAME = "repro"

#: marker attribute identifying the handler installed by configure_logging
_HANDLER_MARK = "_repro_cli_handler"

#: the live stderr status line (a ``ProgressRenderer``, which sets it
#: while it paints) that the CLI handler's records step around: each
#: record calls ``live_line.clear()`` before and ``live_line.paint()``
#: after it is written
live_line = None


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger below the ``"repro"`` root (``get_logger("explore")`` ...)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(level: str = "info") -> logging.Logger:
    """Point the ``"repro"`` tree at stderr with the given verbosity.

    Idempotent: the single handler installed here is replaced, never
    duplicated, so repeated CLI invocations in one process (tests!) keep
    exactly one stream handler.  Returns the configured root logger.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; expected one of {LOG_LEVELS}")
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            root.removeHandler(handler)
    handler = _StderrHandler()
    setattr(handler, _HANDLER_MARK, True)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))
    root.propagate = False
    return root


class _StderrHandler(logging.StreamHandler):
    """A stream handler that resolves ``sys.stderr`` at emit time.

    Test harnesses (pytest's capsys) swap ``sys.stderr`` after handlers are
    created; binding the stream per record keeps captured output and real
    CLI output identical.  While a :data:`live_line` is set, each record
    starts on a clean line and the status line is repainted after it.
    """

    def __init__(self) -> None:
        super().__init__(stream=sys.stderr)

    def emit(self, record: logging.LogRecord) -> None:
        line = live_line
        if line is not None:
            line.clear()
        super().emit(record)
        if line is not None:
            line.paint()

    @property
    def stream(self):  # type: ignore[override]
        return sys.stderr

    @stream.setter
    def stream(self, _value) -> None:
        # the live sys.stderr always wins; StreamHandler.__init__ and
        # setStream still call this, so accept and ignore the assignment
        pass
