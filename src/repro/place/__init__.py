"""Physical design backend: placement, wire-aware timing and clock trees.

The package turns a (mapped) netlist into geometry and feeds the geometry
back into the metrics the rest of the stack tracks:

* :mod:`repro.place.fabric` — the declarative site-grid model (footprints,
  pin offsets, auto-sizing);
* :mod:`repro.place.placer` — greedy row-scan packing plus the seeded
  simulated-annealing HPWL refinement;
* :mod:`repro.place.wires` — per-net wirelength, the linear wire-delay
  model consumed by :func:`repro.timing.arrival.compute_arrival_times`,
  and the congestion map;
* :mod:`repro.place.cts` — the H-tree clock network with per-sink
  insertion delays and worst-case skew;
* :mod:`repro.place.validate` — the structural placement validator;
* :mod:`repro.place.runner` — :func:`place_netlist`, the one-call driver
  the flow's ``place`` stage uses.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.place.cts": ("ClockTree", "build_clock_tree"),
        "repro.place.fabric": (
            "CLOCK_BUFFER_DELAY_NS",
            "CLOCK_WIRE_DELAY_NS_PER_SITE",
            "FabricGrid",
            "SITE_FOOTPRINTS",
            "WIRE_DELAY_NS_PER_SITE",
            "auto_size",
            "footprint",
            "pin_offsets",
            "site_demand",
        ),
        "repro.place.placer": (
            "AnnealStats",
            "Placement",
            "anneal",
            "greedy_initial_placement",
            "total_hpwl",
        ),
        "repro.place.report": ("PlaceReport",),
        "repro.place.runner": (
            "DEFAULT_PLACE_ITERS",
            "DEFAULT_PLACE_SEED",
            "PlaceResult",
            "place_netlist",
        ),
        "repro.place.validate": ("check_placement", "validate_placement"),
        "repro.place.wires": ("congestion_map", "net_lengths", "wire_delays"),
    },
)

__all__ = [
    "AnnealStats",
    "CLOCK_BUFFER_DELAY_NS",
    "CLOCK_WIRE_DELAY_NS_PER_SITE",
    "ClockTree",
    "DEFAULT_PLACE_ITERS",
    "DEFAULT_PLACE_SEED",
    "FabricGrid",
    "PlaceReport",
    "PlaceResult",
    "Placement",
    "SITE_FOOTPRINTS",
    "WIRE_DELAY_NS_PER_SITE",
    "anneal",
    "auto_size",
    "build_clock_tree",
    "check_placement",
    "congestion_map",
    "footprint",
    "greedy_initial_placement",
    "net_lengths",
    "pin_offsets",
    "place_netlist",
    "site_demand",
    "total_hpwl",
    "validate_placement",
    "wire_delays",
]
