"""Import layering and the one definition of each choice-name tuple.

The lower layers — the netlist model, the technology libraries, the
expression frontend, the addend matrix, the reduction algorithms, the final
adders, the analyses, the simulator and the designs — must not import an
upper layer at module level: not the API, the CLI or its command bodies,
the sweep engine, the verifier, the placer, the mapper or the optimizer,
and of the observability package only the tracer helpers.  A
function-local import is allowed; it runs only when that function does.

The choice tuples ``FlowConfig`` validates against live in
:mod:`repro.choices`; each registry behind one imports it and must agree
with it.
"""

import ast
from pathlib import Path

import pytest

import repro.obs.tracer
from repro import choices
from repro.adders import factory
from repro.api.config import config_field
from repro.tech import default_libs, target_libs

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

LOWER_LAYERS = (
    "netlist", "tech", "expr", "bitmatrix", "core", "adders", "timing", "power", "sim", "designs",
)

UPPER_LAYERS = ("api", "cli", "commands", "explore", "verify", "place", "map", "opt")


def _module_level_imports(tree):
    """``(line, imported module, imported names)`` of the statements run on import.

    Function bodies and ``if TYPE_CHECKING:`` blocks do not run on import
    and are skipped.
    """
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            yield node.lineno, node.module, tuple(alias.name for alias in node.names)
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                pending.extend(node.body + node.orelse)
        elif isinstance(node, (ast.Try, ast.With, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _violations(module, names):
    """The upper-layer modules one import statement loads."""
    targets = [module]
    if module == "repro":
        targets = [f"repro.{name}" for name in names]
    bad = []
    for target in targets:
        parts = target.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            continue
        if parts[1] in UPPER_LAYERS:
            bad.append(target)
        elif parts[1] == "obs":
            if len(parts) > 2 and parts[2] != "tracer":
                bad.append(target)
            elif len(parts) == 2 and target == module:
                # ``from repro.obs import name``: only the eager tracer names
                bad.extend(f"repro.obs.{n}" for n in names if not hasattr(repro.obs.tracer, n))
    return bad


def _lower_layer_files():
    return sorted(path for layer in LOWER_LAYERS for path in (PACKAGE / layer).rglob("*.py"))


@pytest.mark.parametrize(
    "path", _lower_layer_files(), ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_lower_layer_imports_no_upper_layer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = [
        f"line {line}: {bad}"
        for line, module, names in _module_level_imports(tree)
        for bad in _violations(module, names)
    ]
    assert problems == []


def test_scan_sees_imports():
    """The scan reads real import statements, so an empty result means something."""
    tree = ast.parse((PACKAGE / "sim" / "program.py").read_text(encoding="utf-8"))
    assert ("repro", ("obs",)) in [(m, n) for _line, m, n in _module_level_imports(tree)]
    assert _violations("repro.opt.manager", ("optimize_netlist",)) == ["repro.opt.manager"]
    assert _violations("repro", ("api", "obs")) == ["repro.api"]
    assert _violations("repro.obs", ("span", "HistoryStore")) == ["repro.obs.HistoryStore"]
    assert _violations("repro.obs.events", ("EventBus",)) == ["repro.obs.events"]


# ------------------------------------------------- one definition per name


def test_dict_registries_match_their_names():
    from repro.designs import registry

    assert tuple(registry._FACTORIES) == choices.DESIGN_NAMES
    assert registry.list_designs() == list(choices.DESIGN_NAMES)
    assert tuple(sorted(factory._BUILDERS)) == choices.FINAL_ADDER_KINDS
    assert tuple(default_libs._LIBRARY_BUILDERS) == choices.LIBRARY_NAMES
    assert tuple(target_libs._TARGET_BUILDERS) == choices.TARGET_LIBRARY_NAMES
    assert choices.TARGET_NAMES == (choices.GENERIC_TARGET,) + choices.TARGET_LIBRARY_NAMES


def test_registries_reexport_the_light_tuples():
    from repro.baselines import multipliers
    from repro.designs import registry
    from repro.map import targets
    from repro.opt import manager

    for name in ("DESIGN_NAMES", "TABLE1_DESIGN_NAMES", "TABLE2_DESIGN_NAMES"):
        assert getattr(registry, name) is getattr(choices, name)
    assert set(choices.TABLE2_DESIGN_NAMES) <= set(choices.TABLE1_DESIGN_NAMES)

    assert factory.FINAL_ADDER_KINDS is choices.FINAL_ADDER_KINDS
    assert multipliers.MULTIPLIER_STYLES is choices.MULTIPLIER_STYLES
    assert manager.OPT_LEVELS is choices.OPT_LEVELS
    assert manager.OPT_LEVEL_HELP is choices.OPT_LEVEL_HELP
    assert default_libs.LIBRARY_NAMES is choices.LIBRARY_NAMES
    assert target_libs.TARGET_LIBRARY_NAMES is choices.TARGET_LIBRARY_NAMES
    for name in ("GENERIC_TARGET", "TARGET_NAMES", "MAP_OBJECTIVES", "TARGET_LIB_HELP",
                 "MAP_OBJECTIVE_HELP"):
        assert getattr(targets, name) is getattr(choices, name)


def test_if_chain_registries_accept_exactly_their_names():
    from repro.errors import MappingError, OptimizationError
    from repro.map.mapper import TechnologyMappingPass
    from repro.opt.manager import default_pipeline

    for level in choices.OPT_LEVELS:
        default_pipeline(level)
    with pytest.raises(OptimizationError):
        default_pipeline(max(choices.OPT_LEVELS) + 1)
    library = target_libs.aoi_rich()
    for objective in choices.MAP_OBJECTIVES:
        TechnologyMappingPass(library, objective=objective)
    with pytest.raises(MappingError):
        TechnologyMappingPass(library, objective="bogus")


@pytest.mark.parametrize(
    "field, names",
    [
        ("final_adder", choices.FINAL_ADDER_KINDS),
        ("multiplier_style", choices.MULTIPLIER_STYLES),
        ("opt_level", choices.OPT_LEVELS),
        ("library", choices.LIBRARY_NAMES),
        ("target_lib", choices.TARGET_NAMES),
        ("map_objective", choices.MAP_OBJECTIVES),
    ],
)
def test_config_validates_against_the_light_tuples(field, names):
    assert config_field(field).choices == names
