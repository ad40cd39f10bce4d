"""Parallel design-space exploration over the synthesis flow.

The paper's whole evaluation is a design-space sweep — benchmark designs x
allocation methods x final adders x power scenarios.  This subsystem makes
that sweep a first-class object:

* :class:`SweepSpec` / :class:`SweepPoint` (:mod:`repro.explore.spec`)
  declare a cartesian grid with constraint filters;
* :func:`run_sweep` (:mod:`repro.explore.engine`) executes the points on
  worker processes forked per sweep, with per-point error capture and an on-disk JSON result
  cache (:mod:`repro.explore.cache`);
* :mod:`repro.explore.analysis` extracts Pareto fronts, per-design winners
  and improvement matrices from the resulting metric records;
* :mod:`repro.explore.io` renders JSON / CSV artifacts and text reports.

The paper's Table 1 / Table 2 harnesses are thin presets of this machinery
(:func:`table1_spec` / :func:`table2_spec`), and ``repro-datapath explore``
exposes the full grid on the command line.

Quick example::

    from repro.explore import SweepSpec, run_sweep, pareto_front

    spec = SweepSpec(designs=["x2", "iir"], methods=["fa_aot", "wallace"],
                     final_adders=["cla", "ripple"])
    sweep = run_sweep(spec, jobs=4, cache=".sweep-cache")
    front = pareto_front(sweep.records)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.explore.analysis": (
            "DEFAULT_OBJECTIVES",
            "best_per_design",
            "improvement_matrix",
            "pareto_front",
            "pareto_front_by_design",
        ),
        "repro.explore.cache": ("CACHE_SCHEMA_VERSION", "ResultCache"),
        "repro.explore.engine": (
            "PointOutcome",
            "SweepResult",
            "WorkerFailure",
            "execute_point",
            "parallel_map",
            "run_sweep",
        ),
        "repro.explore.io": (
            "sweep_report",
            "sweep_to_json_obj",
            "write_csv",
            "write_json",
        ),
        "repro.explore.spec": (
            "SweepPoint",
            "SweepSpec",
            "table1_spec",
            "table2_spec",
        ),
    },
)

__all__ = [
    "DEFAULT_OBJECTIVES",
    "CACHE_SCHEMA_VERSION",
    "PointOutcome",
    "ResultCache",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "WorkerFailure",
    "best_per_design",
    "execute_point",
    "improvement_matrix",
    "parallel_map",
    "pareto_front",
    "pareto_front_by_design",
    "run_sweep",
    "sweep_report",
    "sweep_to_json_obj",
    "table1_spec",
    "table2_spec",
    "write_csv",
    "write_json",
]
