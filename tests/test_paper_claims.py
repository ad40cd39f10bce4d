"""The paper's claims and the ablations' qualitative results, as tier-1 rows.

``tests/test_paper_exact.py`` pins every Table-1/2 netlist byte for byte;
this file states *why* those numbers matter: the orderings the paper
claims (FA_AOT is never slower than the word-level and conventional flows,
FA_ALP never costs more tree energy than random selection) and the
direction of each ablation (Booth and CSD shrink the matrix, faster final
adders beat ripple, FA_AOT's gain over Wallace survives any Ds/Dc and grows
with input skew, netlists grow with problem size).  No row times anything.

Each row of ``CLAIMS`` names the study it reproduces (a paper table, an
ablation or the scaling sweep) and one check.  Registry-design flows are
memoized, so rows that share a flow (a Table-1 row and the Table-1
average) run it once.
"""

from __future__ import annotations

import functools
import gc
import operator

import pytest

from repro.api import Flow, FlowConfig
from repro.designs.base import DatapathDesign
from repro.designs.registry import TABLE1_DESIGN_NAMES, TABLE2_DESIGN_NAMES, get_design
from repro.expr.ast import Const, Var
from repro.expr.signals import SignalSpec
from repro.sim.equivalence import check_equivalence
from repro.tech.default_libs import scaled_library
from repro.utils.metrics import improvement_pct

EPS = 1e-6


@functools.lru_cache(maxsize=None)
def _flow(design: str, **knobs):
    """One ``-O0`` registry-design flow, memoized across rows."""
    return Flow(FlowConfig(**knobs)).run(design)


@pytest.fixture(scope="module", autouse=True)
def _release_flows():
    """Drop the memoized flows with the module.

    Their netlists are reference cycles; collecting them here keeps every
    later module's garbage collections short.
    """
    yield
    _flow.cache_clear()
    gc.collect()


def _addends(result) -> int:
    return result.matrix_build.matrix.total_addends()


# -------------------------------------------------------------- Table 1


def table1_row(design: str) -> None:
    delay = {m: _flow(design, method=m).delay_ns for m in ("conventional", "csa_opt", "fa_aot")}
    assert delay["fa_aot"] <= delay["csa_opt"] * 1.02 + EPS, delay
    assert delay["fa_aot"] <= delay["conventional"] + EPS, delay
    # the compressor-tree methods avoid the per-operator carry-propagate
    # adders of the conventional flow on every multi-operand design
    if get_design(design).expression.node_count() > 3:
        assert delay["csa_opt"] <= delay["conventional"] * 1.10 + EPS, delay


def table1_average() -> None:
    gains = [
        improvement_pct(
            _flow(d, method="conventional").delay_ns, _flow(d, method="fa_aot").delay_ns
        )
        for d in TABLE1_DESIGN_NAMES
    ]
    # the paper reports 37.8% over the conventional flow
    assert sum(gains) / len(gains) > 10.0, gains


# -------------------------------------------------------------- Table 2


def _tree_energy(design: str, method: str) -> float:
    return _flow(design, method=method, random_probabilities=True, seed=2000).tree_energy


def table2_row(design: str) -> None:
    alp, rand = _tree_energy(design, "fa_alp"), _tree_energy(design, "fa_random")
    assert alp <= rand * 1.02, (alp, rand)


def table2_average() -> None:
    gains = [
        improvement_pct(_tree_energy(d, "fa_random"), _tree_energy(d, "fa_alp"))
        for d in TABLE2_DESIGN_NAMES
    ]
    # the paper reports 11.8%; the magnitude depends on the probability draw
    assert sum(gains) / len(gains) > 0.0, gains


# ------------------------------------------------------------ ablations


def booth_shrinks_the_tree(design: str) -> None:
    and_array = _flow(design, multiplication_style="and_array")
    booth = _flow(design, multiplication_style="booth")
    assert _addends(booth) < _addends(and_array)
    assert booth.fa_count < and_array.fa_count


def _fir_design() -> DatapathDesign:
    """A constant-coefficient dot product with CSD-friendly runs of ones."""
    expression = Const(0)
    signals = {}
    for index, coefficient in enumerate((7, 30, 119, 94)):
        name = f"x{index}"
        expression = expression + coefficient * Var(name)
        signals[name] = SignalSpec(name, 8, arrival=0.1 * index)
    return DatapathDesign(
        name="fir_const_coeff",
        title="FIR dot product with constant coefficients",
        expression=expression,
        signals=signals,
        output_width=16,
        description="Ablation design: sum of constant-coefficient products.",
    )


def csd_shrinks_the_matrix() -> None:
    design = _fir_design()
    binary, csd = (Flow(FlowConfig(use_csd_coefficients=c)).run(design) for c in (False, True))
    for result in (binary, csd):
        check_equivalence(
            result.netlist,
            result.output_bus,
            design.expression,
            design.signals,
            output_width=design.output_width,
        ).assert_ok()
    assert _addends(csd) < _addends(binary)


def fa_aot_beats_wallace_at(sum_delay: float, carry_delay: float) -> None:
    library = scaled_library(sum_delay, carry_delay)
    aot, wallace = (
        Flow(FlowConfig(method=m)).run("iir", library=library) for m in ("fa_aot", "wallace")
    )
    assert aot.delay_ns <= wallace.delay_ns + 1e-9, (aot.delay_ns, wallace.delay_ns)


def fa_aot_gain_grows_with_skew() -> None:
    base = get_design("iir")
    gains = []
    for skew in (0.0, 0.4, 0.8, 1.6):
        design = base.with_signals({**base.signals, "x0": SignalSpec("x0", 8, arrival=skew)})
        aot, wallace = (
            Flow(FlowConfig(method=m)).run(design).delay_ns for m in ("fa_aot", "wallace")
        )
        assert aot <= wallace + 1e-9, (skew, aot, wallace)
        gains.append(improvement_pct(wallace, aot))
    assert gains[-1] >= gains[0] - 1e-9, gains


def fast_final_adders_beat_ripple(design: str) -> None:
    delay = {k: _flow(design, final_adder=k).delay_ns for k in ("ripple", "cla", "kogge_stone")}
    assert delay["kogge_stone"] <= delay["ripple"] + 1e-9, delay
    assert delay["cla"] <= delay["ripple"] + 1e-9, delay


# -------------------------------------------------------------- scaling


def _sum_design(operands: int, width: int = 16) -> DatapathDesign:
    names = [f"a{i}" for i in range(operands)]
    return DatapathDesign(
        name=f"sum_{operands}x{width}",
        title=f"sum of {operands} operands ({width}-bit)",
        expression=functools.reduce(operator.add, map(Var, names)),
        signals={name: SignalSpec(name, width) for name in names},
        output_width=width + operands.bit_length(),
        description="Synthetic scaling design.",
    )


def _mac_design(width: int) -> DatapathDesign:
    a, b, c, d, acc = (Var(n) for n in ("a", "b", "c", "d", "acc"))
    return DatapathDesign(
        name=f"mac_{width}",
        title=f"a*b + c*d + acc ({width}-bit)",
        expression=a * b + c * d + acc,
        signals={
            **{n: SignalSpec(n, width) for n in "abcd"},
            "acc": SignalSpec("acc", 2 * width),
        },
        output_width=2 * width + 1,
        description="Synthetic scaling design.",
    )


def cells_grow_with_operand_count() -> None:
    cells = [Flow(FlowConfig()).run(_sum_design(n)).cell_count for n in (4, 8, 16, 32)]
    assert cells == sorted(set(cells)), cells


def addends_grow_with_mac_width() -> None:
    addends = [_addends(Flow(FlowConfig()).run(_mac_design(w))) for w in (4, 8, 12, 16, 20)]
    assert addends == sorted(set(addends)), addends


# ---------------------------------------------------------------- table


def _row(study: str, check, *args):
    """One claim: ``check(*args)``, its test id naming the study it reproduces."""
    label = f"[{','.join(str(a) for a in args)}]" if args else ""
    return pytest.param(check, args, id=f"{study}:{check.__name__}{label}")


CLAIMS = [
    *(_row("table1_timing", table1_row, d) for d in TABLE1_DESIGN_NAMES),
    _row("table1_timing", table1_average),
    *(_row("table2_power", table2_row, d) for d in TABLE2_DESIGN_NAMES),
    _row("table2_power", table2_average),
    *(_row("ablation_booth", booth_shrinks_the_tree, d) for d in ("kalman", "complex")),
    _row("ablation_coefficients", csd_shrinks_the_matrix),
    *(
        _row("ablation_delay_params", fa_aot_beats_wallace_at, ds, dc)
        for ds, dc in ((0.30, 0.30), (0.42, 0.28), (0.60, 0.20), (0.84, 0.56))
    ),
    _row("ablation_delay_params", fa_aot_gain_grows_with_skew),
    *(
        _row("ablation_final_adder", fast_final_adders_beat_ripple, d)
        for d in ("x2_plus_x_plus_y", "mixed_products", "iir")
    ),
    _row("scaling", cells_grow_with_operand_count),
    _row("scaling", addends_grow_with_mac_width),
]


@pytest.mark.parametrize("check, args", CLAIMS)
def test_paper_claim(check, args):
    check(*args)
