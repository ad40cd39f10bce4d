"""argparse option generation from the :class:`FlowConfig` field schema.

The CLI never hand-declares a flow knob: ``synth``/``compare`` call
:func:`add_flow_options` (one flag per config field), ``explore`` calls
:func:`add_sweep_options` (one multi-value axis flag per sweepable field,
plus the per-sweep scalar flags) and ``verify`` calls
:func:`add_domain_options` (one fuzz-domain restriction per sampled
field).  Adding a field to :class:`FlowConfig` therefore adds the CLI
surface, the sweep axis and the cache-key entry in one place.

Boolean axes are exposed with the ``off`` / ``on`` / ``both`` convention
(``--csd both`` sweeps the coefficient recoding on and off).
"""

from __future__ import annotations

import argparse
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.api.config import FieldSpec, FlowConfig, config_fields

#: tri-state values accepted by boolean sweep axes and fuzz-domain flags
BOOL_AXIS_VALUES: Dict[str, Tuple[bool, ...]] = {
    "off": (False,),
    "on": (True,),
    "both": (False, True),
}

#: config fields the verifier's fuzzer pins instead of sampling: ``analyses``
#: is exercised by the metamorphic properties (skipping passes must not
#: change the netlist), ``opt_validate`` / ``map_validate`` are always on so
#: every case also checks the structural invariants after each rewrite/map
#: pass
FUZZ_PINNED_FIELDS = ("analyses", "opt_validate", "map_validate")


def _selected(
    spec: FieldSpec,
    include: Optional[Sequence[str]],
    exclude: Sequence[str],
) -> bool:
    if include is not None and spec.name not in include:
        return False
    return spec.name not in exclude


def _add_scalar_argument(parser: argparse.ArgumentParser, spec: FieldSpec) -> None:
    """One singular flag for one config field (synth/compare style)."""
    if spec.kind == "bool":
        parser.add_argument(
            spec.flag, dest=spec.name, action="store_true", help=spec.help
        )
    elif spec.kind == "names":
        parser.add_argument(
            spec.flag,
            dest=spec.name,
            nargs="+",
            choices=spec.choices,
            default=list(spec.default),
            metavar="NAME",
            help=f"{spec.help} (choices: {', '.join(spec.choices)})",
        )
    elif spec.kind in ("int", "optional_int"):
        parser.add_argument(
            spec.flag,
            dest=spec.name,
            type=int,
            choices=spec.choices,
            default=spec.default,
            metavar="N",
            help=spec.help,
        )
    else:
        parser.add_argument(
            spec.flag,
            dest=spec.name,
            choices=spec.choices,
            default=spec.default,
            help=spec.help,
        )


def add_flow_options(
    parser: argparse.ArgumentParser,
    include: Optional[Sequence[str]] = None,
    exclude: Sequence[str] = (),
) -> None:
    """Add one CLI flag per :class:`FlowConfig` field to ``parser``.

    ``include`` restricts generation to the named fields; ``exclude`` drops
    fields (e.g. ``compare`` excludes ``method`` and adds the multi-valued
    ``--methods`` axis instead).
    """
    for spec in config_fields():
        if spec.flag is None or not _selected(spec, include, exclude):
            continue
        _add_scalar_argument(parser, spec)


def flow_config_from_args(
    args: argparse.Namespace, **overrides: object
) -> FlowConfig:
    """Build a validated :class:`FlowConfig` from parsed CLI arguments.

    Only attributes that exist on ``args`` are consumed, so parsers that
    generated a subset of the flags (``include=...``) work transparently.
    """
    values: Dict[str, object] = {}
    for spec in config_fields():
        if hasattr(args, spec.name):
            values[spec.name] = getattr(args, spec.name)
    values.update(overrides)
    return FlowConfig.from_dict(values)


def add_sweep_options(
    parser: argparse.ArgumentParser,
    include: Optional[Sequence[str]] = None,
    exclude: Sequence[str] = (),
    defaults: Optional[Mapping[str, Sequence]] = None,
) -> None:
    """Add the explore-style sweep flags generated from the schema.

    Sweepable fields get a multi-value axis flag (``--methods``,
    ``--opt-levels``, tri-state ``--csd`` for booleans); per-sweep scalars
    (``--random-probabilities``, ``--analyses``, ``--opt-validate``) reuse
    their singular form.  ``defaults`` overrides the generated default of an
    axis, keyed by the axis attribute name (e.g. ``{"methods": [...]}``).
    """
    defaults = defaults or {}
    for spec in config_fields():
        if not _selected(spec, include, exclude):
            continue
        if spec.axis is None:
            if spec.flag is not None:
                _add_scalar_argument(parser, spec)
            continue
        if spec.kind == "bool":
            parser.add_argument(
                spec.axis_flag,
                dest=spec.axis,
                choices=tuple(BOOL_AXIS_VALUES),
                default="off",
                help=f"sweep: {spec.help}",
            )
            continue
        parser.add_argument(
            spec.axis_flag,
            dest=spec.axis,
            nargs="+",
            type=int if spec.kind in ("int", "optional_int") else str,
            choices=spec.choices,
            default=list(defaults.get(spec.axis, (spec.default,))),
            metavar=spec.name.upper(),
            help=f"sweep: {spec.help}",
        )


def add_domain_options(parser: argparse.ArgumentParser) -> None:
    """Add schema-generated domain-restriction flags to the verify parser.

    Every sampled config field gets a flag reusing its sweep-axis spelling
    (``--methods``, ``--opt-levels``, tri-state ``--csd`` defaulting to
    ``both``...); the default is always the *full* domain.  Destinations are
    prefixed ``domain_`` so they never collide with the fuzzer's own
    ``--seed`` / ``--n`` options; :func:`repro.verify.fuzz.domain_from_args`
    reads them back.
    """
    for spec in config_fields():
        if spec.name in FUZZ_PINNED_FIELDS:
            continue
        flag = spec.axis_flag or spec.flag
        dest = f"domain_{spec.name}"
        if spec.kind == "bool":
            parser.add_argument(
                flag,
                dest=dest,
                choices=tuple(BOOL_AXIS_VALUES),
                default="both",
                help=f"fuzz domain: {spec.help}",
            )
        elif spec.choices is not None:
            parser.add_argument(
                flag,
                dest=dest,
                nargs="+",
                type=int if spec.kind in ("int", "optional_int") else str,
                choices=spec.choices,
                default=list(spec.choices),
                metavar=spec.name.upper(),
                help=f"fuzz domain: {spec.help}",
            )
        else:
            default_text = (
                f"default: {spec.fuzz}"
                if spec.fuzz is not None
                else "default: drawn from the fuzzer rng"
            )
            parser.add_argument(
                flag,
                dest=dest,
                nargs="+",
                type=int,
                default=None,
                metavar=spec.name.upper(),
                help=f"fuzz domain: {spec.help} ({default_text})",
            )


def add_observability_options(parser: argparse.ArgumentParser) -> None:
    """Add the shared observability flags (``--trace`` / ``--profile`` / ...).

    Every flow-running subcommand gets the same flags; the CLI driver
    consumes them uniformly (see ``repro.cli``): ``--trace`` installs a
    tracer for the whole command and writes a Chrome trace-event JSON file,
    ``--profile`` prints the top-span table to stderr, ``--log-level``
    configures the ``repro`` logging bridge, ``--manifest`` writes the run
    manifest and ``--history`` appends the run record to a
    :class:`repro.obs.HistoryStore`.  ``--events`` / ``--live`` install a
    :class:`repro.obs.EventBus` streaming live telemetry (JSONL file and/or
    stderr progress line) and ``--point-timeout`` / ``--stall-factor`` tune
    the sweep engine's straggler re-dispatch and stall flagging.
    """
    from repro.obs import LOG_LEVELS

    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record spans and write a Chrome trace-event JSON file "
        "(open in Perfetto / chrome://tracing)",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="print the top spans by total time to stderr after the run",
    )
    group.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of diagnostic output on stderr (default: info)",
    )
    group.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="write a JSON run manifest (config identity, host, timings)",
    )
    group.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="append this run's record (QoR, span summary, counters, "
        "manifest) to the run-history store in DIR; implies span "
        "collection (default: $REPRO_HISTORY when set)",
    )
    group.add_argument(
        "--events",
        metavar="DIR",
        default=None,
        help="stream live telemetry events (points, heartbeats, stalls, "
        "retries, resource gauges) to DIR/events.jsonl; follow with "
        "'repro obs tail'",
    )
    group.add_argument(
        "--live",
        action="store_true",
        help="render a live progress line (done/total, ETA, cache hits, "
        "stalls) on stderr while the command runs",
    )
    group.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard wall-time budget per sweep point (parallel sweeps): "
        "a point in flight longer is abandoned and re-dispatched, then "
        "recorded as errored — a hung worker cannot hang the sweep",
    )
    group.add_argument(
        "--stall-factor",
        type=float,
        default=4.0,
        metavar="FACTOR",
        help="flag a sweep point as stalling once it has been in flight "
        "longer than FACTOR x the rolling median point time (default: 4; "
        "0 or negative disables stall detection)",
    )


def sweep_spec_from_args(
    args: argparse.Namespace,
    designs: Sequence[str],
):
    """Build a :class:`repro.explore.SweepSpec` from parsed explore args."""
    from repro.explore.spec import SweepSpec

    kwargs: Dict[str, object] = {}
    for spec in config_fields():
        if spec.axis is not None and hasattr(args, spec.axis):
            values = getattr(args, spec.axis)
            if spec.kind == "bool" and isinstance(values, str):
                values = BOOL_AXIS_VALUES[values]
            kwargs[spec.axis] = tuple(values)
        elif spec.axis is None and hasattr(args, spec.name):
            value = getattr(args, spec.name)
            if spec.kind == "names":
                value = tuple(value)
            kwargs[spec.name] = value
    return SweepSpec(designs=tuple(designs), **kwargs)
