"""The canonical public API: one config schema, one staged flow.

This package is the spine of the system:

* :class:`FlowConfig` — a frozen, validated, self-describing configuration
  dataclass.  Its per-field metadata (choices, default, CLI flag, sweep
  axis, cache relevance) is the **single source of truth** for every knob:
  the CLI, the sweep engine and the result cache all derive from it.
* :class:`Flow` — the staged pipeline
  (``frontend -> reduce -> final_adder -> optimize -> map -> place -> analyze``,
  :data:`STAGE_ORDER`) with replaceable steps and individually skippable,
  registrable analysis passes.
* :class:`FlowResult` — the one object of a run: ``Flow.run`` creates it,
  every stage and analysis pass fills it in, and it is returned as is.  It
  holds the netlist, each stage's artifact (stored once, read back through
  named accessors such as ``compression`` or ``timing``), the metrics
  derived from them and the wall-times; its ``to_dict()`` is the metric
  record every downstream consumer reads.

Quickstart::

    from repro.api import Flow, FlowConfig

    config = FlowConfig(method="fa_aot", final_adder="kogge_stone")
    result = Flow(config).run("iir")
    print(result.summary())

    # timing-only analysis: skips power propagation for faster sweeps
    fast = Flow(FlowConfig(analyses=("timing",))).run("iir")
    assert fast.delay_ns > 0 and fast.power is None
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.api.config": (
            "DEFAULT_ANALYSES",
            "MATRIX_METHODS",
            "MULTIPLICATION_STYLES",
            "SYNTHESIS_METHODS",
            "FieldSpec",
            "FlowConfig",
            "analysis_names",
            "config_field",
            "config_fields",
            "register_analysis",
            "unregister_analysis",
        ),
        "repro.api.flow": ("Flow",),
        "repro.api.options": (
            "add_flow_options",
            "add_sweep_options",
            "flow_config_from_args",
            "sweep_spec_from_args",
        ),
        "repro.api.result": ("FlowResult",),
        "repro.api.stages": (
            "STAGE_ORDER",
            "register_stage",
        ),
    },
)

__all__ = [
    "DEFAULT_ANALYSES",
    "MATRIX_METHODS",
    "MULTIPLICATION_STYLES",
    "STAGE_ORDER",
    "SYNTHESIS_METHODS",
    "FieldSpec",
    "Flow",
    "FlowConfig",
    "FlowResult",
    "add_flow_options",
    "add_sweep_options",
    "analysis_names",
    "config_field",
    "config_fields",
    "flow_config_from_args",
    "register_analysis",
    "register_stage",
    "sweep_spec_from_args",
    "unregister_analysis",
]
