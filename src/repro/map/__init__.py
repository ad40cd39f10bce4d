"""Technology mapping: rewrite generic netlists onto concrete cell bases.

The flow's synthesis stages build netlists from idealized primitives (FA,
HA, two-input gates).  This subsystem lowers such a netlist onto one of the
*target libraries* shipped in :mod:`repro.tech.target_libs` — a concrete
standard-cell basis with its own areas, arcs and energies — under an
``area`` / ``delay`` / ``balanced`` objective:

>>> from repro.map import map_netlist
>>> report = map_netlist(netlist, target="nand2_basis", objective="delay")

Inside the staged flow this runs as the ``map`` stage (between ``optimize``
and ``analyze``) whenever ``FlowConfig.target_lib`` names a concrete basis;
all downstream analyses (timing, power, stats) then run against the target
library, and the :class:`MapReport` lands in the flow artifacts.

See :mod:`repro.map.templates` for the equivalence-checked decomposition
templates and :mod:`repro.map.mapper` for the covering pass.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.map.mapper": ("TechnologyMappingPass", "map_netlist"),
        "repro.map.report": ("MapReport",),
        "repro.map.targets": (
            "GENERIC_TARGET",
            "MAP_OBJECTIVES",
            "TARGET_NAMES",
            "basis_of",
            "resolve_target_library",
        ),
        "repro.map.templates": (
            "MapTemplate",
            "TemplateNode",
            "register_template",
            "templates_for",
            "verify_template",
        ),
    },
)

__all__ = [
    "GENERIC_TARGET",
    "MAP_OBJECTIVES",
    "TARGET_NAMES",
    "MapReport",
    "MapTemplate",
    "TemplateNode",
    "TechnologyMappingPass",
    "basis_of",
    "map_netlist",
    "register_template",
    "resolve_target_library",
    "templates_for",
    "verify_template",
]
