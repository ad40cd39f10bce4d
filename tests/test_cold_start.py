"""Cold start: a CLI run imports only the layers it runs.

Every check runs in a fresh interpreter and reads ``sys.modules`` after the
command, so it is deterministic where a timer would not be.  ``import
repro.cli``, alone or followed by building every technology library (the
benchmark's cold-start path), must not load the flow stages, any backend
layer, the designs, the expression frontend, the netlist core or the
command bodies; ``--help`` loads nothing more than the import, and
``list-designs`` only its handler and the design layer.  ``--help``,
``list-designs`` and a plain ``synth`` must not load the sweep engine, the
verifier, the placer, the map templates or the history / event-bus
modules.  The positive control asks for mapping and placement and checks
that the lazily imported run loads those layers and computes exactly what
an eagerly imported run computes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: never loaded by import, --help, list-designs or a plain synth
NOT_ON_PLAIN_RUNS = (
    "repro.place",
    "repro.explore",
    "repro.verify",
    "repro.obs.history",
    "repro.obs.events",
    "repro.map.templates",
    "repro.netlist.verilog",
)

#: additionally never loaded by ``import repro.cli`` alone, nor by building
#: the technology libraries after it
NOT_ON_IMPORT = NOT_ON_PLAIN_RUNS + (
    "repro.api.stages",
    "repro.opt",
    "repro.baselines",
    "repro.designs",
    "repro.expr",
    "repro.netlist.core",
    "repro.netlist.serialize",
    "repro.netlist.stats",
    "repro.netlist.validate",
    "repro.commands.flow",
    "repro.commands.obs",
)

#: the only layers ``list-designs`` may load beyond the import: its
#: handler and the designs it instantiates
LIST_DESIGNS_LAYERS = ("repro.commands.flow", "repro.designs", "repro.expr")

#: argv that stands for "import the CLI, then build every technology
#: library" (the benchmark's cold-start path) instead of a command
LIBRARIES = ["<libraries>"]

#: child script: run ``argv`` (or only import the CLI when it is empty),
#: optionally after importing every module of the package first, then
#: print the loaded ``repro`` modules as one JSON line
_CHILD = r"""
import contextlib, io, json, sys
argv, eager = json.loads(sys.argv[1])
if eager:
    import pkgutil, importlib, repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
import repro.cli
if argv == ["<libraries>"]:
    from repro.choices import LIBRARY_NAMES, TARGET_LIBRARY_NAMES
    from repro.tech.default_libs import resolve_library
    from repro.tech.target_libs import resolve_target_library
    for name in LIBRARY_NAMES:
        resolve_library(name)
    for name in TARGET_LIBRARY_NAMES:
        resolve_target_library(name)
elif argv:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            repro.cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, None), exc.code
print(json.dumps(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))))
"""


def _loaded(argv, eager=False):
    """The ``repro`` modules a fresh interpreter holds after running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_HISTORY", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([argv, eager])],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _offenders(loaded, forbidden):
    return sorted(m for m in loaded for f in forbidden if m == f or m.startswith(f + "."))


def test_import_loads_no_layer():
    loaded = _loaded([])
    assert "repro.cli" in loaded
    assert _offenders(loaded, NOT_ON_IMPORT) == []


def test_import_then_every_library_loads_only_the_cell_semantics():
    loaded = _loaded(LIBRARIES)
    assert {"repro.tech.default_libs", "repro.tech.target_libs", "repro.netlist.cells"} <= loaded
    assert _offenders(loaded, NOT_ON_IMPORT) == []


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["list-designs"], ["synth", "--design", "x2"]],
    ids=["help", "list-designs", "synth"],
)
def test_plain_commands_load_only_what_they_run(argv):
    assert _offenders(_loaded(argv), NOT_ON_PLAIN_RUNS) == []


def test_help_loads_no_more_than_the_import():
    # building the parser resolves the ``analyses`` choices from the light
    # registry in repro.api.config, so it must not pull in the flow stages
    loaded = _loaded(["--help"])
    assert "repro.api.stages" not in loaded
    assert loaded == _loaded([])


def test_list_designs_loads_only_its_handler_and_the_designs():
    # it prints every design's summary, so it builds every design
    loaded = _loaded(["list-designs"])
    beyond = loaded - _loaded([])
    assert beyond
    assert sorted(beyond) == _offenders(beyond, LIST_DESIGNS_LAYERS)
    assert "repro.api.stages" not in loaded
    assert _offenders(loaded, NOT_ON_PLAIN_RUNS) == []


def _flow_dict(tmp_path, eager):
    """``FlowResult.to_dict()`` of a mapped, placed synth, minus wall time."""
    out = tmp_path / ("eager.json" if eager else "lazy.json")
    argv = ["synth", "--design", "x2", "--target-lib", "aoi_rich", "--place", "--json", str(out)]
    loaded = _loaded(argv, eager=eager)
    record = json.loads(out.read_text())
    record["map_report"].pop("elapsed_s", None)
    return loaded, record


def test_mapped_placed_synth_loads_its_layers_and_matches_eager_run(tmp_path):
    lazy_loaded, lazy = _flow_dict(tmp_path, eager=False)
    assert {"repro.map.mapper", "repro.place.runner"} <= lazy_loaded
    eager_loaded, eager = _flow_dict(tmp_path, eager=True)
    assert "repro.verify" in eager_loaded  # the control really imported everything
    assert lazy == eager
