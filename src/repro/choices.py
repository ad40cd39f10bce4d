"""The names a choice-valued flow knob accepts, in a module that imports nothing.

:class:`repro.api.FlowConfig` validates against these tuples and the CLI
lists them in ``--help``, so checking a config or building the parser must
not import the layers that implement the names.  Each tuple is defined here
once; the registry behind it (the final-adder factory, the multiplier
builder, the ``-O`` pipeline, the library resolvers, the mapper, the design
registry) imports it and validates against it, and the name-keyed
registries assert that their keys match.
"""

#: every registered benchmark design (:mod:`repro.designs.registry`)
DESIGN_NAMES = (
    "x2",
    "x3",
    "x2_plus_x_plus_y",
    "square_of_sum",
    "mixed_products",
    "iir",
    "kalman",
    "idct",
    "complex",
    "serial_adapter",
)

#: Table 1 rows of the paper, in its order: every registered design
TABLE1_DESIGN_NAMES = DESIGN_NAMES

#: Table 2 rows of the paper, in its order
TABLE2_DESIGN_NAMES = ("iir", "kalman", "idct", "complex", "serial_adapter")

#: final carry-propagate adder architectures (:mod:`repro.adders.factory`)
FINAL_ADDER_KINDS = ("carry_select", "cla", "kogge_stone", "ripple")

#: multiplier macro styles of the conventional method
#: (:mod:`repro.baselines.multipliers`)
MULTIPLIER_STYLES = ("wallace_cpa", "array")

#: the supported ``-O`` levels (:mod:`repro.opt.manager`)
OPT_LEVELS = (0, 1, 2)

#: one-line description of the levels, shared by the CLI flag help and the
#: config field metadata
OPT_LEVEL_HELP = (
    "netlist optimization level: 0 = as built (paper protocol), "
    "1 = safe cleanups, 2 = full pipeline (always equivalence-checked)"
)

#: names accepted by :func:`repro.tech.default_libs.resolve_library` (the
#: CLI / sweep library axis)
LIBRARY_NAMES = ("generic_035", "unit")

#: names accepted by :func:`repro.tech.target_libs.resolve_target_library`
#: (the mapping bases, excluding the identity target)
TARGET_LIBRARY_NAMES = ("nand2_basis", "aoi_rich", "lowpower_035")

#: the identity target: keep the generic primitives, skip mapping entirely
GENERIC_TARGET = "generic"

#: every value accepted by the ``target_lib`` config field
TARGET_NAMES = (GENERIC_TARGET,) + TARGET_LIBRARY_NAMES

#: every value accepted by the ``map_objective`` config field
MAP_OBJECTIVES = ("area", "delay", "balanced")

#: shared help strings (config field metadata and CLI flags derive from them)
TARGET_LIB_HELP = (
    "technology-mapping target cell basis "
    "('generic' = keep the FA/HA primitives unmapped, the paper protocol)"
)
MAP_OBJECTIVE_HELP = "template-selection objective for technology mapping"
