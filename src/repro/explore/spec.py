"""Declarative sweep specifications over the FlowConfig schema.

A :class:`SweepPoint` names one fully-determined synthesis run: a design
name plus the validated :class:`repro.api.FlowConfig` to run it with.  Its
cache identity (:meth:`SweepPoint.key`) is the design plus the config's
cache-relevant fields (debug knobs like ``opt_validate`` ride along to the
executing flow without fragmenting the cache).  Points are frozen and
hashable, so worker processes and the on-disk cache both key off them.

:class:`SweepSpec` is **built dynamically from the config schema**
(:func:`repro.api.config.config_fields`):

* every field with a sweep ``axis`` becomes a plural ``SweepSpec`` axis
  (``methods``, ``final_adders``, ``opt_levels``, ...) swept in the grid;
* the remaining fields (``random_probabilities``, ``analyses``,
  ``opt_validate``, ``map_validate``) become per-sweep scalars.

Adding a field to ``FlowConfig`` therefore adds the sweep axis and the
cache-key entry here with no code changes.  Canonicalization (don't-care
knobs reset) is delegated to :meth:`FlowConfig.canonical`, so the grid
never schedules duplicate work.

The paper's Table 1 and Table 2 are just two small presets of this grid
(see :func:`table1_spec` / :func:`table2_spec`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, make_dataclass
from typing import Callable, Dict, List, Sequence

from repro.api.config import FlowConfig, config_fields
from repro.choices import DESIGN_NAMES
from repro.errors import ConfigError, ExplorationError

#: resolved field specs, split by role (computed once at import time)
_ALL_SPECS = config_fields()
_AXIS_SPECS = tuple(s for s in _ALL_SPECS if s.axis is not None)
_SCALAR_SPECS = tuple(s for s in _ALL_SPECS if s.axis is None)

#: the all-defaults config: a point's default and the label's baseline
_DEFAULT_CONFIG = FlowConfig()


@dataclass(frozen=True)
class SweepPoint:
    """One fully-determined synthesis run inside a sweep.

    ``design`` is a registry name and ``config`` the validated
    :class:`FlowConfig` to run it with; the cache-relevant config fields
    plus the design form the cache key (:meth:`key`).
    """

    design: str
    config: FlowConfig = _DEFAULT_CONFIG

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view with JSON-stable types: the design, then every
        config field."""
        return {"design": self.design, **self.config.to_dict()}

    def canonical(self) -> "SweepPoint":
        """Normalized copy with don't-care knobs reset (see FlowConfig.canonical)."""
        return SweepPoint(self.design, self.config.canonical())

    def key(self) -> str:
        """Stable content key identifying this point (cache identity).

        Built from ``design`` plus :meth:`FlowConfig.cache_dict`, so it is
        canonical (don't-care knobs reset), restricted to cache-relevant
        fields (``opt_validate`` does not fragment the cache) and
        independent of field declaration order (keys are sorted).
        """
        data = self.config.cache_dict()
        data["design"] = self.design
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Short hex digest of :meth:`key` — used as the cache file name."""
        return hashlib.sha256(self.key().encode("utf-8")).hexdigest()[:32]

    def label(self) -> str:
        """Compact human-readable identifier for progress lines and reports."""
        c, default = self.config, _DEFAULT_CONFIG
        parts = [self.design, c.method, c.final_adder]
        if c.library != default.library:
            parts.append(c.library)
        if c.multiplication_style != default.multiplication_style:
            parts.append(c.multiplication_style)
        if c.use_csd_coefficients:
            parts.append("csd")
        if c.fold_square_products:
            parts.append("foldsq")
        if c.multiplier_style != default.multiplier_style:
            parts.append(c.multiplier_style)
        if c.random_probabilities:
            parts.append(f"randp{c.seed}")
        if c.opt_level:
            parts.append(f"O{c.opt_level}")
        if c.target_lib != default.target_lib:
            parts.append(f"{c.target_lib}:{c.map_objective}")
        if c.place:
            rows = c.fabric_rows if c.fabric_rows is not None else "auto"
            cols = c.fabric_cols if c.fabric_cols is not None else "auto"
            parts.append(f"place{rows}x{cols}:s{c.place_seed}:i{c.place_iters}")
        if c.analyses != default.analyses:
            parts.append("a:" + "+".join(c.analyses))
        return "/".join(parts)


#: a point's column layout in artifacts: exactly the keys of
#: :meth:`SweepPoint.to_dict` (the design, then every FlowConfig field in
#: schema order), so new knobs appear in the CSV automatically
POINT_COLUMNS = tuple(SweepPoint("").to_dict())

#: a constraint takes a point and returns True to keep it
Constraint = Callable[[SweepPoint], bool]


# ----------------------------------------------------------------------
# SweepSpec (axes likewise derived from the FlowConfig schema)
# ----------------------------------------------------------------------


def _spec_validate(self) -> None:
    if not self.designs:
        raise ExplorationError("sweep spec has no designs")

    def check(label: str, values: Sequence, allowed: Sequence) -> None:
        unknown = [v for v in values if v not in allowed]
        if unknown:
            raise ExplorationError(
                f"unknown {label} {unknown!r}; expected values from {tuple(allowed)}"
            )

    check("design(s)", self.designs, DESIGN_NAMES)
    # choices are re-resolved here (not taken from the import-time snapshot)
    # so analyses registered after import are immediately sweepable
    fresh = {s.name: s for s in config_fields()}
    for spec in _AXIS_SPECS:
        choices = fresh[spec.name].choices
        if choices is not None:
            check(f"{spec.name} value(s)", getattr(self, spec.axis), choices)
    for spec in _SCALAR_SPECS:
        choices = fresh[spec.name].choices
        if spec.kind == "names" and choices is not None:
            check(f"{spec.name} value(s)", getattr(self, spec.name), choices)


def _spec_expand(self) -> List[SweepPoint]:
    """Expand the grid into a deduplicated, constraint-filtered point list."""
    self._validate()
    scalars = {s.name: getattr(self, s.name) for s in _SCALAR_SPECS}
    points: List[SweepPoint] = []
    seen: set = set()
    # rightmost axes vary fastest, matching the declared axis order
    # (designs outermost, seeds innermost)
    grid = itertools.product(
        tuple(self.designs), *[tuple(getattr(self, s.axis)) for s in _AXIS_SPECS]
    )
    for combo in grid:
        values = dict(zip((s.name for s in _AXIS_SPECS), combo[1:]))
        values.update(scalars)
        try:
            config = FlowConfig(**values)
        except ConfigError as exc:
            raise ExplorationError(str(exc))
        point = SweepPoint(combo[0], config.canonical())
        key = point.key()
        if key in seen:
            continue
        if not all(c(point) for c in self.constraints):
            continue
        seen.add(key)
        points.append(point)
    return points


SweepSpec = make_dataclass(
    "SweepSpec",
    [("designs", Sequence)]
    + [(s.axis, Sequence, field(default=(s.default,))) for s in _AXIS_SPECS]
    + [(s.name, object, field(default=s.default)) for s in _SCALAR_SPECS]
    + [("constraints", Sequence, field(default=()))],
    namespace={
        "__doc__": (
            "A cartesian grid of sweep points with optional constraint\n"
            "    filters, derived from the FlowConfig schema: every sweepable\n"
            "    config field contributes one plural axis (``methods``,\n"
            "    ``final_adders``, ``libraries``, ``multiplication_styles``,\n"
            "    ``csd_options``, ``fold_square_options``,\n"
            "    ``multiplier_styles``, ``opt_levels``, ``target_libs``,\n"
            "    ``map_objectives``, ``place_options``, ``fabric_rows_values``,\n"
            "    ``fabric_cols_values``, ``place_seeds``, ``place_iters_values``,\n"
            "    ``seeds``), the rest are per-sweep\n"
            "    scalars (``random_probabilities``, ``analyses``,\n"
            "    ``opt_validate``, ``map_validate``).  ``expand()`` produces the\n"
            "    full product (designs outermost, seeds innermost),\n"
            "    canonicalizes each point, drops duplicates, validates the\n"
            "    axis values and applies every constraint in order.\n    "
        ),
        "_validate": _spec_validate,
        "expand": _spec_expand,
    },
)
SweepSpec.__module__ = __name__


def table1_spec(
    designs: Sequence[str],
    library: str = "generic_035",
    final_adder: str = "cla",
) -> "SweepSpec":
    """The Table 1 protocol: conventional / CSA_OPT / FA_AOT, default inputs."""
    return SweepSpec(
        designs=tuple(designs),
        methods=("conventional", "csa_opt", "fa_aot"),
        final_adders=(final_adder,),
        libraries=(library,),
    )


def table2_spec(
    designs: Sequence[str],
    seed: int = 2000,
    library: str = "generic_035",
    final_adder: str = "cla",
) -> "SweepSpec":
    """The Table 2 protocol: FA_random vs FA_ALP with random probabilities."""
    return SweepSpec(
        designs=tuple(designs),
        methods=("fa_random", "fa_alp"),
        final_adders=(final_adder,),
        libraries=(library,),
        random_probabilities=True,
        seeds=(seed,),
    )
