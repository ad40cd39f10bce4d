"""Cold-start cost: import ``repro.cli`` and build libraries in a fresh process.

As a script (the child), it times ``import repro.cli`` and the build of the
libraries named on its command line, then one calibration-kernel run, and
prints the three times as one JSON line.  :func:`measure_setup` (the
parent) starts children one after another and reports medians, so one slow
start cannot move the result.

``setup_s`` is in reference seconds: each child's cold-start time divided by
its own kernel run, times :data:`REFERENCE_KERNEL_S`.  The host's speed
swings by up to 2x between minutes, and a kernel run right after the import
swings with it; raw medians of 11 starts spread 17% over a few minutes,
referenced ones 6%.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"

#: timed children per measurement; one more runs first, untimed, so
#: bytecode caches written by the first import do not count.  Over ten
#: runs per workload, the median with seven was within 2% of the median
#: with eleven, and each run is 2.5 s shorter
SETUP_RUNS = 7

#: a child that takes longer than this has hung
CHILD_TIMEOUT_S = 60

#: the calibration kernel's median run time on the host the benchmark was
#: defined on (a 2-core 2.1 GHz Xeon VM); ``setup_s`` reads as seconds there
REFERENCE_KERNEL_S = 0.12


def _child(libraries: Sequence[str]) -> None:
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    from repro.tech.default_libs import resolve_library
    from repro.tech.target_libs import resolve_target_library

    for name in libraries:
        kind, _, lib = name.partition(":")
        (resolve_library if kind == "lib" else resolve_target_library)(lib)
    built = time.perf_counter()
    from calib import time_kernel

    print(
        json.dumps(
            {"import_s": imported - start, "library_s": built - imported, "kernel_s": time_kernel()}
        )
    )


def _run_child(libraries: Sequence[str]) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, __file__, *libraries],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(libraries: Sequence[str]) -> Dict[str, float]:
    """Medians over :data:`SETUP_RUNS` cold starts: setup (reference seconds), import and library seconds.

    ``libraries`` are ``lib:<name>`` (a :func:`resolve_library` name) or
    ``target:<name>`` (a :func:`resolve_target_library` name).
    """
    _run_child(libraries)
    samples = [_run_child(libraries) for _ in range(SETUP_RUNS)]
    return {
        "setup_s": statistics.median(
            (s["import_s"] + s["library_s"]) / s["kernel_s"] * REFERENCE_KERNEL_S for s in samples
        ),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "library_s": statistics.median(s["library_s"] for s in samples),
    }


if __name__ == "__main__":
    _child(sys.argv[1:])
