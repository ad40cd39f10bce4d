"""Declarative sweep specifications, derived from the FlowConfig schema.

A :class:`SweepPoint` names one fully-determined synthesis run: a design
name plus every :class:`repro.api.FlowConfig` field.  Both
:class:`SweepPoint` and :class:`SweepSpec` are **built dynamically from the
config schema** (:func:`repro.api.config.config_fields`):

* every config field is a ``SweepPoint`` field; the cache-relevant ones
  form its cache key (debug knobs like ``opt_validate`` ride along to the
  executing flow without fragmenting the cache);
* every field with a sweep ``axis`` becomes a plural ``SweepSpec`` axis
  (``methods``, ``final_adders``, ``opt_levels``, ...) swept in the grid;
* the remaining flagged fields (``random_probabilities``, ``analyses``,
  ``opt_validate``) become per-sweep scalars.

Adding a field to ``FlowConfig`` therefore adds the sweep axis and the
cache-key entry here with no code changes.  Points hold only plain,
hashable, picklable values, so worker processes and the on-disk cache both
key off them; canonicalization (don't-care knobs reset) is delegated to
:meth:`FlowConfig.canonical` so the grid never schedules duplicate work.

The paper's Table 1 and Table 2 are just two small presets of this grid
(see :func:`table1_spec` / :func:`table2_spec`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import field, make_dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api.config import FlowConfig, config_fields
from repro.errors import ConfigError, ExplorationError

#: resolved field specs, split by role (computed once at import time)
_ALL_SPECS = config_fields()
_AXIS_SPECS = tuple(s for s in _ALL_SPECS if s.axis is not None)
_SCALAR_SPECS = tuple(s for s in _ALL_SPECS if s.axis is None)
_DEFAULTS = {s.name: s.default for s in _ALL_SPECS}

#: fields of :class:`SweepPoint`: the design plus every config knob.
#: Non-cache-relevant knobs (``opt_validate``) ride along so they reach the
#: executing flow, but are excluded from the cache identity (:meth:`key`).
_POINT_FIELDS = ("design",) + tuple(s.name for s in _ALL_SPECS)


def point_field_names() -> Tuple[str, ...]:
    """The :class:`SweepPoint` field names, in canonical order."""
    return _POINT_FIELDS


# ----------------------------------------------------------------------
# SweepPoint (dynamically derived from the FlowConfig schema)
# ----------------------------------------------------------------------


def _point_to_dict(self) -> Dict[str, object]:
    """Plain-dict view with JSON-stable types (tuples -> lists)."""
    out: Dict[str, object] = {}
    for name in _POINT_FIELDS:
        value = getattr(self, name)
        if isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def _point_from_dict(cls, data: Dict[str, object]) -> "SweepPoint":
    """Rebuild a point from :meth:`to_dict` output (extra keys ignored)."""
    values: Dict[str, object] = {}
    for name in _POINT_FIELDS:
        if name in data:
            value = data[name]
            if isinstance(value, list):
                value = tuple(value)
            values[name] = value
    return cls(**values)


def _point_config(self) -> FlowConfig:
    """The :class:`FlowConfig` this point describes (validates on build)."""
    return FlowConfig(**{s.name: getattr(self, s.name) for s in _ALL_SPECS})


def _point_from_config(cls, design: str, config: FlowConfig) -> "SweepPoint":
    """Build a point for ``design`` from a config (inverse of ``config()``)."""
    return cls(design=design, **{s.name: getattr(config, s.name) for s in _ALL_SPECS})


def _point_canonical(self) -> "SweepPoint":
    """Normalized copy with don't-care knobs reset (see FlowConfig.canonical)."""
    return type(self).from_config(self.design, self.config().canonical())


def _point_key(self) -> str:
    """Stable content key identifying this point (cache identity).

    Built from ``design`` plus :meth:`FlowConfig.cache_dict`, so it is
    canonical (don't-care knobs reset), restricted to cache-relevant fields
    (``opt_validate`` does not fragment the cache) and independent of field
    declaration order (keys are sorted).
    """
    data = self.config().cache_dict()
    data["design"] = self.design
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _point_digest(self) -> str:
    """Short hex digest of :meth:`key` — used as the cache file name."""
    return hashlib.sha256(self.key().encode("utf-8")).hexdigest()[:32]


def _point_label(self) -> str:
    """Compact human-readable identifier for progress lines and reports."""
    parts = [self.design, self.method, self.final_adder]
    if self.library != _DEFAULTS["library"]:
        parts.append(self.library)
    if self.multiplication_style != _DEFAULTS["multiplication_style"]:
        parts.append(self.multiplication_style)
    if self.use_csd_coefficients:
        parts.append("csd")
    if self.fold_square_products:
        parts.append("foldsq")
    if self.multiplier_style != _DEFAULTS["multiplier_style"]:
        parts.append(self.multiplier_style)
    if self.random_probabilities:
        parts.append(f"randp{self.seed}")
    if self.opt_level:
        parts.append(f"O{self.opt_level}")
    if self.target_lib != _DEFAULTS["target_lib"]:
        parts.append(f"{self.target_lib}:{self.map_objective}")
    if self.place:
        rows = self.fabric_rows if self.fabric_rows is not None else "auto"
        cols = self.fabric_cols if self.fabric_cols is not None else "auto"
        parts.append(f"place{rows}x{cols}:s{self.place_seed}:i{self.place_iters}")
    if tuple(self.analyses) != tuple(_DEFAULTS["analyses"]):
        parts.append("a:" + "+".join(self.analyses))
    return "/".join(parts)


SweepPoint = make_dataclass(
    "SweepPoint",
    [("design", str)]
    + [(s.name, object, field(default=s.default)) for s in _ALL_SPECS],
    frozen=True,
    namespace={
        "__doc__": (
            "One fully-determined synthesis run inside a sweep.\n\n"
            "    Derived dynamically from the FlowConfig schema: the fields are\n"
            "    ``design`` plus every config field, so a new config knob is\n"
            "    automatically part of every point; cache-relevant fields form\n"
            "    the cache key (``key()``).  Values are plain scalars/tuples:\n"
            "    picklable to worker processes, hashable, JSON-serializable.\n    "
        ),
        "to_dict": _point_to_dict,
        "from_dict": classmethod(_point_from_dict),
        "config": _point_config,
        "from_config": classmethod(_point_from_config),
        "canonical": _point_canonical,
        "key": _point_key,
        "digest": _point_digest,
        "label": _point_label,
    },
)
SweepPoint.__module__ = __name__  # make instances picklable to sweep workers


#: a constraint takes a point and returns True to keep it
Constraint = Callable[["SweepPoint"], bool]


# ----------------------------------------------------------------------
# SweepSpec (axes likewise derived from the FlowConfig schema)
# ----------------------------------------------------------------------


def _spec_validate(self) -> None:
    from repro.designs.registry import list_designs

    if not self.designs:
        raise ExplorationError("sweep spec has no designs")

    def check(label: str, values: Sequence, allowed: Sequence) -> None:
        unknown = [v for v in values if v not in allowed]
        if unknown:
            raise ExplorationError(
                f"unknown {label} {unknown!r}; expected values from {tuple(allowed)}"
            )

    check("design(s)", self.designs, list_designs())
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


def _spec_expand(self) -> List["SweepPoint"]:
    """Expand the grid into a deduplicated, constraint-filtered point list."""
    self._validate()
    scalars = {s.name: getattr(self, s.name) for s in _SCALAR_SPECS}
    points: List["SweepPoint"] = []
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
        point = SweepPoint.from_config(combo[0], config.canonical())
        key = point.key()
        if key in seen:
            continue
        if not all(c(point) for c in self.constraints):
            continue
        seen.add(key)
        points.append(point)
    return points


def _spec_size_bound(self) -> int:
    """Upper bound on the grid size before dedup/constraints."""
    size = len(self.designs)
    for spec in _AXIS_SPECS:
        size *= len(getattr(self, spec.axis))
    return size


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
        "size_bound": _spec_size_bound,
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
