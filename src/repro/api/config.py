"""The unified flow configuration schema: one dataclass drives everything.

:class:`FlowConfig` is the single source of truth for every synthesis knob.
Each field carries metadata (choices, CLI flag, sweep-axis name, help text,
cache relevance) introspectable through :func:`config_fields`, so the other
layers *derive* their surface from this schema instead of re-declaring it:

* the CLI generates its ``synth`` / ``compare`` / ``explore`` options from
  the field metadata (:mod:`repro.api.options`);
* ``repro.explore.spec`` builds its ``SweepSpec`` dataclass dynamically
  from the same fields, so every knob is automatically a sweep axis, and a
  ``SweepPoint`` is just a design name plus a ``FlowConfig``, so every
  cache-relevant knob is part of the result-cache key;
* :meth:`FlowConfig.cache_key` is the canonical cache identity — adding a
  field here is all it takes for a new knob to flow through sweeps, CLI
  flags and cached records.

A config is frozen, validates itself on construction (raising
:class:`repro.errors.ConfigError`) and serializes canonically through
``to_dict`` / ``from_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.choices import (
    FINAL_ADDER_KINDS,
    GENERIC_TARGET,
    LIBRARY_NAMES,
    MAP_OBJECTIVE_HELP,
    MAP_OBJECTIVES,
    MULTIPLIER_STYLES,
    OPT_LEVEL_HELP,
    OPT_LEVELS,
    TARGET_LIB_HELP,
    TARGET_NAMES,
)
from repro.errors import ConfigError

#: methods that go through the addend matrix + compressor tree pipeline
MATRIX_METHODS = (
    "fa_aot",
    "fa_alp",
    "fa_random",
    "wallace",
    "dadda",
    "csa_opt",
    "column_isolation",
)

#: every method accepted by the flow
SYNTHESIS_METHODS = MATRIX_METHODS + ("conventional",)

#: partial-product generation schemes for the matrix methods
MULTIPLICATION_STYLES = ("and_array", "booth")

# The analysis registry lives beside the field whose choices it defines, so
# validating a config or building the CLI parser never imports the flow
# stages.  The built-in passes are declared here by name; repro.api.stages
# defines them and registers their functions when it is imported (a flow
# run always imports it).

#: an analysis pass: takes the in-progress FlowResult, returns its artifact
AnalysisFn = Callable[[object], object]

#: the built-in analysis passes, in canonical order; all of them run by
#: default (full analysis, the paper's protocol)
DEFAULT_ANALYSES = ("timing", "power", "stats")

#: name -> pass (insertion order = canonical order); a built-in maps to
#: ``None`` until :mod:`repro.api.stages` registers it
_ANALYSES: Dict[str, Optional[AnalysisFn]] = dict.fromkeys(DEFAULT_ANALYSES)
_ANALYSIS_REGISTRY_VERSION = 0  # bumped on every (un)registration


def analysis_registry_version() -> int:
    """Monotonic counter of analysis (un)registrations.

    Lets :func:`config_fields` memoize its resolved field specs and still
    see late registrations.
    """
    return _ANALYSIS_REGISTRY_VERSION


def register_analysis(name: str) -> Callable[[AnalysisFn], AnalysisFn]:
    """Decorator: register an analysis pass under ``name``.

    The pass takes the in-progress :class:`~repro.api.result.FlowResult`
    (netlist, library and the artifacts of the stages before it) and
    returns its artifact, which the flow stores under ``name`` in
    ``result.stage_artifacts``.
    Registered names immediately become valid ``FlowConfig.analyses``
    values, CLI choices and sweep options.

    The registry is process-local.  Parallel sweeps look passes up in
    their worker processes, so with a ``spawn``/``forkserver`` start method
    a custom analysis must be registered at import time of a module the
    workers also import (with ``fork``, the default on Linux, workers
    inherit the parent's registry automatically).
    """

    def deco(fn: AnalysisFn) -> AnalysisFn:
        global _ANALYSIS_REGISTRY_VERSION
        _ANALYSES[name] = fn
        _ANALYSIS_REGISTRY_VERSION += 1
        return fn

    return deco


def unregister_analysis(name: str) -> None:
    """Remove a registered analysis pass (mainly for tests/plugins)."""
    global _ANALYSIS_REGISTRY_VERSION
    _ANALYSES.pop(name, None)
    _ANALYSIS_REGISTRY_VERSION += 1


def analysis_names() -> Tuple[str, ...]:
    """Names of all registered analysis passes, in canonical order."""
    return tuple(_ANALYSES)


def analysis(name: str) -> AnalysisFn:
    """The registered pass called ``name`` (raises :class:`ConfigError`)."""
    fn = _ANALYSES.get(name)
    if fn is None:
        raise ConfigError(
            f"unknown analysis {name!r}; expected one of {analysis_names()}"
        )
    return fn



def _meta(
    help: str,
    *,
    kind: str = "str",
    choices: object = None,
    flag: Optional[str] = None,
    axis: Optional[str] = None,
    axis_flag: Optional[str] = None,
    cache: bool = True,
    fuzz: Optional[Tuple] = None,
) -> Dict[str, Dict[str, object]]:
    """Build the ``field(metadata=...)`` payload for one config knob.

    ``fuzz`` pins the verifier's sampling domain for choice-free fields
    whose full value space would be invalid or pathologically expensive to
    fuzz (e.g. ``fabric_rows``, where a random integer is either rejected
    at construction or describes a fabric of millions of sites); fields
    without it derive their domain from ``choices``/``kind`` as usual.
    """
    return {
        "repro": {
            "help": help,
            "kind": kind,
            "choices": choices,
            "flag": flag,
            "axis": axis,
            "axis_flag": axis_flag,
            "cache": cache,
            "fuzz": fuzz,
        }
    }


@dataclass(frozen=True)
class FieldSpec:
    """Resolved, introspection-friendly view of one :class:`FlowConfig` field.

    ``kind`` is one of ``"str"``, ``"bool"``, ``"int"``, ``"optional_int"``
    or ``"names"`` (a tuple of strings, e.g. ``analyses``).  ``axis`` names
    the plural sweep-axis attribute on ``SweepSpec`` (``None`` = the field is
    a per-sweep scalar, not an axis).  ``cache_relevant`` fields are part of
    :meth:`FlowConfig.cache_key` and of every ``SweepPoint.key()``; the
    others (debug knobs) still reach the flow but never split the cache.
    """

    name: str
    default: object
    kind: str
    help: str
    choices: Optional[Tuple]
    flag: Optional[str]
    axis: Optional[str]
    axis_flag: Optional[str]
    cache_relevant: bool
    #: explicit fuzz-domain override for choice-free fields (None = derive)
    fuzz: Optional[Tuple] = None


@dataclass(frozen=True)
class FlowConfig:
    """Declarative, validated configuration of one synthesis flow run.

    Every knob of the flow lives here — see the module docstring for how the
    CLI, the sweep engine and the cache all derive from this schema.  The
    design itself is *not* configuration: it is the input passed to
    :meth:`repro.api.Flow.run`.
    """

    method: str = field(
        default="fa_aot",
        metadata=_meta(
            "compressor-tree allocation method",
            choices=SYNTHESIS_METHODS,
            flag="--method",
            axis="methods",
            axis_flag="--methods",
        ),
    )
    final_adder: str = field(
        default="cla",
        metadata=_meta(
            "final carry-propagate adder architecture",
            choices=FINAL_ADDER_KINDS,
            flag="--final-adder",
            axis="final_adders",
            axis_flag="--final-adders",
        ),
    )
    library: str = field(
        default="generic_035",
        metadata=_meta(
            "technology library",
            choices=tuple(LIBRARY_NAMES),
            flag="--library",
            axis="libraries",
            axis_flag="--libraries",
        ),
    )
    multiplication_style: str = field(
        default="and_array",
        metadata=_meta(
            "partial-product generation for the matrix methods",
            choices=MULTIPLICATION_STYLES,
            flag="--multiplication-style",
            axis="multiplication_styles",
            axis_flag="--multiplication-styles",
        ),
    )
    use_csd_coefficients: bool = field(
        default=False,
        metadata=_meta(
            "recode constant coefficients in canonical signed-digit form",
            kind="bool",
            flag="--csd",
            axis="csd_options",
            axis_flag="--csd",
        ),
    )
    fold_square_products: bool = field(
        default=False,
        metadata=_meta(
            "fold symmetric partial products of x*x terms (squarer optimization)",
            kind="bool",
            flag="--fold-square-products",
            axis="fold_square_options",
            axis_flag="--fold-square-products",
        ),
    )
    multiplier_style: str = field(
        default="wallace_cpa",
        metadata=_meta(
            "multiplier macro style for the conventional method",
            choices=MULTIPLIER_STYLES,
            flag="--multiplier-style",
            axis="multiplier_styles",
            axis_flag="--multiplier-styles",
        ),
    )
    random_probabilities: bool = field(
        default=False,
        metadata=_meta(
            "randomize input signal probabilities (Table 2 protocol)",
            kind="bool",
            flag="--random-probabilities",
        ),
    )
    opt_level: int = field(
        default=0,
        metadata=_meta(
            OPT_LEVEL_HELP,
            kind="int",
            choices=OPT_LEVELS,
            flag="--opt",
            axis="opt_levels",
            axis_flag="--opt-levels",
        ),
    )
    target_lib: str = field(
        default=GENERIC_TARGET,
        metadata=_meta(
            TARGET_LIB_HELP,
            choices=TARGET_NAMES,
            flag="--target-lib",
            axis="target_libs",
            axis_flag="--target-libs",
        ),
    )
    map_objective: str = field(
        default="balanced",
        metadata=_meta(
            MAP_OBJECTIVE_HELP,
            choices=MAP_OBJECTIVES,
            flag="--map-objective",
            axis="map_objectives",
            axis_flag="--map-objectives",
        ),
    )
    seed: Optional[int] = field(
        default=2000,
        metadata=_meta(
            "random seed for fa_random / random probabilities",
            kind="optional_int",
            flag="--seed",
            axis="seeds",
            axis_flag="--seeds",
        ),
    )
    analyses: Tuple[str, ...] = field(
        default=DEFAULT_ANALYSES,
        metadata=_meta(
            "analysis passes to run on the finished netlist "
            "(skipping passes speeds up large sweeps)",
            kind="names",
            choices=analysis_names,
            flag="--analyses",
        ),
    )
    place: bool = field(
        default=False,
        metadata=_meta(
            "run the physical-design backend: annealing placement, "
            "wire-aware timing and H-tree clock synthesis",
            kind="bool",
            flag="--place",
            axis="place_options",
            axis_flag="--place",
        ),
    )
    fabric_rows: Optional[int] = field(
        default=None,
        metadata=_meta(
            "placement fabric rows (default: auto-sized for the netlist)",
            kind="optional_int",
            flag="--fabric-rows",
            axis="fabric_rows_values",
            axis_flag="--fabric-rows",
            fuzz=(None,),
        ),
    )
    fabric_cols: Optional[int] = field(
        default=None,
        metadata=_meta(
            "placement fabric columns (default: auto-sized for the netlist)",
            kind="optional_int",
            flag="--fabric-cols",
            axis="fabric_cols_values",
            axis_flag="--fabric-cols",
            fuzz=(None,),
        ),
    )
    place_seed: int = field(
        default=1,
        metadata=_meta(
            "random seed of the annealing placer",
            kind="int",
            flag="--place-seed",
            axis="place_seeds",
            axis_flag="--place-seeds",
        ),
    )
    place_iters: int = field(
        default=2000,
        metadata=_meta(
            "annealing moves proposed by the placer",
            kind="int",
            flag="--place-iters",
            axis="place_iters_values",
            axis_flag="--place-iters",
            fuzz=(200, 800),
        ),
    )
    opt_validate: bool = field(
        default=False,
        metadata=_meta(
            "debug: structurally validate the netlist after every opt pass",
            kind="bool",
            flag="--opt-validate",
            cache=False,
        ),
    )
    map_validate: bool = field(
        default=False,
        metadata=_meta(
            "debug: structurally validate the netlist after every mapping pass",
            kind="bool",
            flag="--map-validate",
            cache=False,
        ),
    )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        # normalize analyses to a deduplicated tuple (order-preserving) so
        # configs stay hashable and no pass can be scheduled twice
        analyses = (self.analyses,) if isinstance(self.analyses, str) else self.analyses
        normalized = tuple(dict.fromkeys(analyses))
        if normalized != self.analyses:
            object.__setattr__(self, "analyses", normalized)
        for spec in config_fields():
            value = getattr(self, spec.name)
            self._check_type(spec, value)
            if spec.choices is None:
                continue
            if spec.kind == "names":
                unknown = [v for v in value if v not in spec.choices]
                if unknown:
                    raise ConfigError(
                        f"unknown {spec.name} {unknown!r}; "
                        f"expected values from {spec.choices}"
                    )
            elif value not in spec.choices:
                raise ConfigError(
                    f"unknown {spec.name} {value!r}; expected one of {spec.choices}"
                )
        # physical-design knobs have open integer ranges; reject the
        # geometrically meaningless values at construction time
        for name in ("fabric_rows", "fabric_cols"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(
                    f"{name} must be a positive site count, got {value}"
                )
        if self.place_iters < 0:
            raise ConfigError(
                f"place_iters must be non-negative, got {self.place_iters}"
            )

    @staticmethod
    def _check_type(spec: FieldSpec, value: object) -> None:
        ok = True
        if spec.kind == "bool":
            ok = isinstance(value, bool)
        elif spec.kind == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif spec.kind == "optional_int":
            ok = value is None or (isinstance(value, int) and not isinstance(value, bool))
        elif spec.kind == "names":
            ok = isinstance(value, tuple) and all(isinstance(v, str) for v in value)
        else:  # "str"
            ok = isinstance(value, str)
        if not ok:
            raise ConfigError(
                f"bad value {value!r} for {spec.name} (expected {spec.kind})"
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view with JSON-stable value types (tuples -> lists)."""
        out: Dict[str, object] = {}
        for spec in config_fields():
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FlowConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a typo'd knob must not silently
        disappear); missing keys fall back to the schema defaults.
        """
        known = {spec.name for spec in config_fields()}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown FlowConfig field(s) {unknown!r}; expected a subset of "
                f"{sorted(known)!r}"
            )
        return cls(**dict(data))

    # ------------------------------------------------------------------
    # canonicalization and cache identity
    # ------------------------------------------------------------------

    def canonical(self) -> "FlowConfig":
        """Normalized copy with don't-care knobs reset to their defaults.

        Matrix-construction knobs are reset for the matrix-free
        ``conventional`` method (and the conventional-only multiplier style
        is reset for matrix methods); the seed is reset when nothing random
        consumes it (only ``fa_random`` and the random-probability protocol
        do); the mapping objective is reset when ``target_lib`` is the
        identity ``"generic"`` target (nothing is mapped, so the objective
        cannot matter); the fabric/placer knobs are reset when ``place``
        is off (the stage is skipped, so they cannot matter); ``analyses``
        is deduplicated and sorted into registry order.  Two configs
        describing the same computation therefore share one
        :meth:`cache_key`.
        """
        defaults = {spec.name: spec.default for spec in config_fields()}
        cfg = self
        if cfg.method == "conventional":
            if (
                cfg.multiplication_style != defaults["multiplication_style"]
                or cfg.use_csd_coefficients
                or cfg.fold_square_products
            ):
                cfg = replace(
                    cfg,
                    multiplication_style=defaults["multiplication_style"],
                    use_csd_coefficients=defaults["use_csd_coefficients"],
                    fold_square_products=defaults["fold_square_products"],
                )
        elif cfg.multiplier_style != defaults["multiplier_style"]:
            cfg = replace(cfg, multiplier_style=defaults["multiplier_style"])
        if cfg.method != "fa_random" and not cfg.random_probabilities:
            if cfg.seed != defaults["seed"]:
                cfg = replace(cfg, seed=defaults["seed"])
        if cfg.target_lib == GENERIC_TARGET:
            if cfg.map_objective != defaults["map_objective"]:
                cfg = replace(cfg, map_objective=defaults["map_objective"])
        if not cfg.place:
            # with the place stage skipped no fabric/placer knob can matter
            place_knobs = ("fabric_rows", "fabric_cols", "place_seed", "place_iters")
            if any(getattr(cfg, name) != defaults[name] for name in place_knobs):
                cfg = replace(cfg, **{name: defaults[name] for name in place_knobs})
        order = {name: i for i, name in enumerate(analysis_names())}
        analyses = tuple(
            sorted(dict.fromkeys(cfg.analyses), key=lambda name: order.get(name, 99))
        )
        if analyses != cfg.analyses:
            cfg = replace(cfg, analyses=analyses)
        return cfg

    def cache_dict(self) -> Dict[str, object]:
        """Canonical dict of the cache-relevant fields only."""
        cfg = self.canonical()
        out: Dict[str, object] = {}
        for spec in config_fields():
            if not spec.cache_relevant:
                continue
            value = getattr(cfg, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            out[spec.name] = value
        return out

    def cache_key(self) -> str:
        """Stable content key: canonical JSON of the cache-relevant fields.

        Independent of field declaration order (keys are sorted) and of
        don't-care knobs (see :meth:`canonical`).
        """
        return json.dumps(self.cache_dict(), sort_keys=True, separators=(",", ":"))

    def cache_digest(self) -> str:
        """Short hex digest of :meth:`cache_key`."""
        import hashlib

        return hashlib.sha256(self.cache_key().encode("utf-8")).hexdigest()[:32]


#: memoized (registry_version, specs); rebuilt when the analysis registry
#: changes so late ``register_analysis`` calls stay visible
_SPEC_CACHE: Optional[Tuple[int, Tuple[FieldSpec, ...]]] = None


def config_fields() -> Tuple[FieldSpec, ...]:
    """The resolved :class:`FieldSpec` of every :class:`FlowConfig` field.

    This is the introspection surface the CLI generator and the sweep-spec
    builder consume; callable ``choices`` (e.g. the analysis registry) are
    resolved at call time so late registrations are visible.  The result is
    memoized against the analysis-registry version — this runs on every
    config construction, which sweeps do thousands of times.
    """
    global _SPEC_CACHE
    version = analysis_registry_version()
    if _SPEC_CACHE is not None and _SPEC_CACHE[0] == version:
        return _SPEC_CACHE[1]
    specs = []
    for f in fields(FlowConfig):
        meta = f.metadata["repro"]
        choices = meta["choices"]
        if callable(choices):
            choices = tuple(choices())
        specs.append(
            FieldSpec(
                name=f.name,
                default=f.default,
                kind=meta["kind"],
                help=meta["help"],
                choices=tuple(choices) if choices is not None else None,
                flag=meta["flag"],
                axis=meta["axis"],
                axis_flag=meta["axis_flag"],
                cache_relevant=meta["cache"],
                fuzz=meta["fuzz"],
            )
        )
    _SPEC_CACHE = (version, tuple(specs))
    return _SPEC_CACHE[1]


def config_field(name: str) -> FieldSpec:
    """The :class:`FieldSpec` for one field name (raises on unknown names)."""
    for spec in config_fields():
        if spec.name == name:
            return spec
    raise ConfigError(f"unknown FlowConfig field {name!r}")

