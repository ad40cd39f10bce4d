"""Verification subsystem: differential fuzzing + metamorphic properties.

The paper's claims rest on two things this package continuously tests:

* **correctness** — every synthesized netlist computes its design's
  reference expression (differential fuzzing over the whole
  :class:`~repro.api.config.FlowConfig` space, plus metamorphic properties
  linking related configurations);
* **metric stability** — the reported timing/power/area numbers stay inside
  tolerance bands pinned by a committed golden snapshot.

Everything is seeded and replayable, fans out over the exploration engine's
worker pool, and is driven either from ``repro-datapath verify`` or
programmatically::

    from repro.verify import run_verify, run_self_test

    report = run_verify(smoke=True, seed=0, jobs=4)
    assert report.ok, report.render()
    assert run_self_test()["ok"]      # the fuzzer catches a planted bug

The self-test (mutation testing) is part of the subsystem's contract: a
deliberately broken rewrite pass injected through the ``PassManager`` API
must be flagged as non-equivalent, or the whole verification stack is
considered broken.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.api.options": ("add_domain_options",),
        "repro.verify.fuzz": (
            "case_seed",
            "check_point",
            "default_domain",
            "domain_from_args",
            "run_fuzz",
            "sample_config",
            "sample_points",
        ),
        "repro.verify.golden": (
            "DEFAULT_GOLDEN_PATH",
            "bless_golden",
            "compare_to_golden",
            "golden_points",
            "load_golden",
            "run_golden",
            "run_golden_points",
        ),
        "repro.verify.metamorphic": (
            "METAMORPHIC_PROPERTIES",
            "check_property",
            "metamorphic_property",
            "property_names",
            "run_metamorphic",
        ),
        "repro.verify.mutation": ("BrokenAndToOrPass", "BrokenDropCarryPass"),
        "repro.verify.report": ("VerifyReport", "write_report"),
        "repro.verify.runner": ("run_self_test", "run_verify"),
    },
)

__all__ = [
    "BrokenAndToOrPass",
    "BrokenDropCarryPass",
    "DEFAULT_GOLDEN_PATH",
    "METAMORPHIC_PROPERTIES",
    "VerifyReport",
    "add_domain_options",
    "bless_golden",
    "case_seed",
    "check_point",
    "check_property",
    "compare_to_golden",
    "default_domain",
    "domain_from_args",
    "golden_points",
    "load_golden",
    "metamorphic_property",
    "property_names",
    "run_fuzz",
    "run_golden",
    "run_golden_points",
    "run_metamorphic",
    "run_self_test",
    "run_verify",
    "sample_config",
    "sample_points",
    "write_report",
]
