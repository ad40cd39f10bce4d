"""Property-based tests over the whole synthesis pipeline.

Three families of properties:

* functional equivalence — for random expressions and random input vectors,
  every allocation method produces a netlist computing the expression modulo
  2**W;
* model agreement — at ``-O0`` on ``generic_035``, the arrival and
  probability FA_AOT/FA_ALP annotate on every FA/HA output equal what
  sign-off STA and probability propagation compute, exactly;
* optimization dominance — for random arrival/probability profiles, FA_AOT's
  final-adder worst input arrival never exceeds that of the arrival-blind
  reducers, and FA_ALP's tree switching energy never exceeds FA_random's by
  more than a small tolerance (FA_ALP is a heuristic, but it must never be
  *badly* beaten by random selection — the paper's "very low risk" claim).
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.adders.factory import build_final_adder
from repro.baselines.wallace import wallace_reduce
from repro.bitmatrix.builder import build_addend_matrix
from repro.core.delay_model import FADelayModel
from repro.core.fa_aot import fa_aot
from repro.core.fa_alp import fa_alp
from repro.core.fa_random import fa_random
from repro.expr.ast import Const, Expression, Var
from repro.expr.signals import SignalSpec
from repro.power.probability import propagate_probabilities
from repro.sim.equivalence import check_equivalence
from repro.tech.default_libs import generic_035
from repro.timing.arrival import compute_arrival_times

VARIABLES = ("a", "b", "c")


@st.composite
def small_expressions(draw) -> Expression:
    """Random expressions over a, b, c with +, -, * and small constants."""
    leaf = st.one_of(
        st.sampled_from([Var(name) for name in VARIABLES]),
        st.integers(min_value=0, max_value=7).map(Const),
    )
    expression = draw(leaf)
    operations = draw(st.integers(min_value=1, max_value=4))
    for _ in range(operations):
        operator = draw(st.sampled_from(["add", "sub", "mul"]))
        operand = draw(leaf)
        if operator == "add":
            expression = expression + operand
        elif operator == "sub":
            expression = expression - operand
        else:
            expression = expression * operand
    return expression


@st.composite
def signal_profiles(draw) -> Dict[str, SignalSpec]:
    """Random widths, arrivals and probabilities for the three variables."""
    signals = {}
    for name in VARIABLES:
        width = draw(st.integers(min_value=1, max_value=3))
        arrival = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        probability = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
        signals[name] = SignalSpec(name, width, arrival=arrival, probability=probability)
    return signals


def _used_signals(expression, signals) -> Dict[str, SignalSpec]:
    """Only the signals of variables the expression actually uses."""
    used = set(expression.variables())
    return {name: spec for name, spec in signals.items() if name in used}


def _synthesize_matrix(expression, signals, width, reducer) -> Tuple:
    build = build_addend_matrix(expression, signals, width)
    result = reducer(build.netlist, build.matrix)
    rows = [[a.net if a else None for a in row] for row in result.rows]
    bus = build_final_adder(build.netlist, rows[0], rows[1], width)
    build.netlist.set_output_bus(bus)
    return build, result, bus


class TestFunctionalEquivalence:
    @given(small_expressions(), signal_profiles())
    @settings(max_examples=25, deadline=None)
    def test_fa_aot_equivalence(self, expression, signals):
        build, _, bus = _synthesize_matrix(expression, signals, 8, fa_aot)
        check_equivalence(
            build.netlist, bus, expression, _used_signals(expression, signals), output_width=8,
            random_vector_count=16, exhaustive_width_limit=9,
        ).assert_ok()

    @given(small_expressions(), signal_profiles())
    @settings(max_examples=15, deadline=None)
    def test_fa_alp_equivalence(self, expression, signals):
        build, _, bus = _synthesize_matrix(expression, signals, 7, fa_alp)
        check_equivalence(
            build.netlist, bus, expression, _used_signals(expression, signals), output_width=7,
            random_vector_count=16, exhaustive_width_limit=9,
        ).assert_ok()

    @given(small_expressions(), signal_profiles())
    @settings(max_examples=15, deadline=None)
    def test_wallace_equivalence(self, expression, signals):
        build, _, bus = _synthesize_matrix(expression, signals, 6, wallace_reduce)
        check_equivalence(
            build.netlist, bus, expression, _used_signals(expression, signals), output_width=6,
            random_vector_count=16, exhaustive_width_limit=9,
        ).assert_ok()


class TestModelAgreement:
    @pytest.mark.parametrize("reducer", [fa_aot, fa_alp], ids=["fa_aot", "fa_alp"])
    @given(small_expressions(), signal_profiles())
    @settings(max_examples=20, deadline=None)
    def test_reducer_annotations_equal_signoff(self, reducer, expression, signals):
        library = generic_035()
        build = build_addend_matrix(expression, signals, 8, library=library)
        result = reducer(
            build.netlist, build.matrix, FADelayModel.from_library(library)
        )
        rows = [[a.net if a else None for a in row] for row in result.rows]
        build.netlist.set_output_bus(
            build_final_adder(build.netlist, rows[0], rows[1], 8)
        )
        timing = compute_arrival_times(build.netlist, library)
        probabilities = propagate_probabilities(build.netlist)
        for net in build.netlist.nets.values():
            if net.is_primary_input or "arrival" not in net.attributes:
                continue
            assert net.attributes["arrival"] == timing.arrival_of(net), net.name
            assert net.attributes["probability"] == (
                probabilities.probability_of(net)
            ), net.name


class TestOptimizationDominance:
    @given(small_expressions(), signal_profiles())
    @settings(max_examples=20, deadline=None)
    def test_fa_aot_dominates_wallace_on_uniform_arrivals(self, expression, signals):
        # with every input arriving at time zero the earliest-first pairing
        # of FA_AOT never loses to the arrival-blind Wallace staging
        signals = {
            name: SignalSpec(
                spec.name, spec.width, arrival=0.0, probability=spec.probability
            )
            for name, spec in signals.items()
        }
        model = FADelayModel(2.0, 1.0)
        build_a = build_addend_matrix(expression, signals, 8)
        build_b = build_addend_matrix(expression, signals, 8)
        aot = fa_aot(build_a.netlist, build_a.matrix, model)
        wallace = wallace_reduce(build_b.netlist, build_b.matrix, model)
        assert aot.max_final_arrival <= wallace.max_final_arrival + 1e-9

    @given(small_expressions(), signal_profiles())
    @settings(max_examples=20, deadline=None)
    def test_fa_aot_never_much_worse_than_wallace_on_skewed_arrivals(
        self, expression, signals
    ):
        # with skewed input arrivals the greedy per-column pairing is a
        # heuristic, not an optimum: cross-column carries can cost it up to
        # about one FA sum level against a lucky Wallace staging, so the
        # property bounds the loss by Ds instead of demanding dominance
        model = FADelayModel(2.0, 1.0)
        build_a = build_addend_matrix(expression, signals, 8)
        build_b = build_addend_matrix(expression, signals, 8)
        aot = fa_aot(build_a.netlist, build_a.matrix, model)
        wallace = wallace_reduce(build_b.netlist, build_b.matrix, model)
        assert aot.max_final_arrival <= wallace.max_final_arrival + model.sum_delay

    @given(small_expressions(), signal_profiles(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_fa_alp_never_much_worse_than_random(self, expression, signals, seed):
        build_a = build_addend_matrix(expression, signals, 8)
        build_b = build_addend_matrix(expression, signals, 8)
        alp = fa_alp(build_a.netlist, build_a.matrix)
        random_tree = fa_random(build_b.netlist, build_b.matrix, seed=seed)
        if random_tree.tree_switching_energy > 0:
            # FA_ALP is a heuristic, so a small slack is allowed; what must never
            # happen is random selection beating it by a wide margin.
            assert (
                alp.tree_switching_energy
                <= random_tree.tree_switching_energy * 1.25 + 0.05
            )
