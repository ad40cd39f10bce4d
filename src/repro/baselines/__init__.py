"""Baseline synthesis methods the paper compares against.

* :func:`wallace_reduce` / :func:`dadda_reduce` — classic arrival-blind
  bit-level compressor trees (the way Wallace compression is used inside
  conventional fast multipliers).
* :func:`csa_opt_reduce` — the word-level carry-save-adder allocation of the
  authors' earlier CSA_OPT algorithm (ICCAD'99), re-implemented from its
  published description.
* :func:`conventional_synthesis` — operator-level RTL synthesis: every ``+``,
  ``-`` and ``*`` becomes its own module with a carry-propagate adder at its
  output, arranged in a balanced operator tree.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.baselines.wallace": ("wallace_reduce",),
        "repro.baselines.dadda": ("dadda_reduce",),
        "repro.baselines.csa_opt": ("csa_opt_reduce",),
        "repro.baselines.multipliers": ("unsigned_multiplier",),
        "repro.baselines.conventional": (
            "ConventionalResult",
            "conventional_synthesis",
        ),
    },
)

__all__ = [
    "wallace_reduce",
    "dadda_reduce",
    "csa_opt_reduce",
    "unsigned_multiplier",
    "ConventionalResult",
    "conventional_synthesis",
]
