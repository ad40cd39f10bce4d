"""Tests for the baseline reducers (Wallace, Dadda, CSA_OPT) and multipliers."""

import itertools

import pytest

from repro.adders.factory import build_final_adder
from repro.baselines.csa_opt import csa_opt_reduce
from repro.baselines.dadda import dadda_height_sequence, dadda_reduce
from repro.baselines.multipliers import unsigned_multiplier
from repro.baselines.wallace import wallace_reduce
from repro.bitmatrix.builder import build_addend_matrix
from repro.core.delay_model import FADelayModel
from repro.core.fa_aot import fa_aot
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.errors import NetlistError
from repro.netlist.core import Netlist
from repro.sim.equivalence import check_equivalence
from repro.sim.evaluator import bus_value, evaluate_netlist


def _build(expression_text, widths, output_width, arrivals=None):
    expression = parse_expression(expression_text)
    arrivals = arrivals or {}
    signals = {
        name: SignalSpec(name, width, arrival=arrivals.get(name, 0.0))
        for name, width in widths.items()
    }
    return expression, signals, build_addend_matrix(expression, signals, output_width)


def _finish_and_check(expression, signals, build, result, width):
    rows = [[a.net if a else None for a in row] for row in result.rows]
    bus = build_final_adder(build.netlist, rows[0], rows[1], width)
    build.netlist.set_output_bus(bus)
    report = check_equivalence(build.netlist, bus, expression, signals, output_width=width)
    report.assert_ok()
    return bus


class TestWallace:
    def test_reduces_and_is_equivalent(self):
        expression, signals, build = _build("x*y + z + 3", {"x": 3, "y": 3, "z": 4}, 7)
        result = wallace_reduce(build.netlist, build.matrix)
        assert all(h <= 2 for h in [sum(a is not None for a in pair) for pair in zip(*result.rows)])
        _finish_and_check(expression, signals, build, result, 7)

    def test_arrival_blind_selection(self):
        """Wallace ignores arrival times: its worst final arrival is never
        better than FA_AOT's on a skewed profile."""
        model = FADelayModel(2.0, 1.0)
        _, _, build_a = _build(
            "x + y + z + w", {"x": 4, "y": 4, "z": 4, "w": 4}, 6, arrivals={"x": 5.0}
        )
        _, _, build_b = _build(
            "x + y + z + w", {"x": 4, "y": 4, "z": 4, "w": 4}, 6, arrivals={"x": 5.0}
        )
        wallace = wallace_reduce(build_a.netlist, build_a.matrix, model)
        aot = fa_aot(build_b.netlist, build_b.matrix, model)
        assert aot.max_final_arrival <= wallace.max_final_arrival + 1e-9


class TestDadda:
    def test_height_sequence(self):
        assert dadda_height_sequence(13) == [2, 3, 4, 6, 9, 13]
        assert dadda_height_sequence(2) == [2]

    def test_reduces_and_is_equivalent(self):
        expression, signals, build = _build("x*y + x + y", {"x": 4, "y": 3}, 7)
        result = dadda_reduce(build.netlist, build.matrix)
        assert all(h <= 2 for h in [sum(a is not None for a in pair) for pair in zip(*result.rows)])
        _finish_and_check(expression, signals, build, result, 7)

    def test_dadda_uses_no_more_cells_than_wallace(self):
        _, _, build_w = _build("x*y", {"x": 5, "y": 5}, 10)
        _, _, build_d = _build("x*y", {"x": 5, "y": 5}, 10)
        wallace = wallace_reduce(build_w.netlist, build_w.matrix)
        dadda = dadda_reduce(build_d.netlist, build_d.matrix)
        assert (
            dadda.fa_count + dadda.ha_count <= wallace.fa_count + wallace.ha_count
        )


class TestCsaOpt:
    def test_reduces_and_is_equivalent(self):
        expression, signals, build = _build(
            "x*y + z + w + 6", {"x": 3, "y": 3, "z": 4, "w": 4}, 8
        )
        result = csa_opt_reduce(build.netlist, build.matrix)
        assert all(h <= 2 for h in [sum(a is not None for a in pair) for pair in zip(*result.rows)])
        _finish_and_check(expression, signals, build, result, 8)

    def test_word_level_never_beats_bit_level(self):
        """CSA_OPT allocates at word granularity, so FA_AOT is at least as fast."""
        model = FADelayModel(2.0, 1.0)
        for arrivals in ({}, {"x": 4.0}, {"z": 2.5, "w": 1.0}):
            _, _, build_c = _build(
                "x*y + z + w", {"x": 4, "y": 4, "z": 6, "w": 6}, 10, arrivals=arrivals
            )
            _, _, build_f = _build(
                "x*y + z + w", {"x": 4, "y": 4, "z": 6, "w": 6}, 10, arrivals=arrivals
            )
            csa = csa_opt_reduce(build_c.netlist, build_c.matrix, model)
            aot = fa_aot(build_f.netlist, build_f.matrix, model)
            assert aot.max_final_arrival <= csa.max_final_arrival + 1e-9

    def test_single_term_design(self):
        expression, signals, build = _build("x*y", {"x": 3, "y": 3}, 6)
        result = csa_opt_reduce(build.netlist, build.matrix)
        _finish_and_check(expression, signals, build, result, 6)

    def test_addition_only_design(self):
        expression, signals, build = _build("x + y + z + 1", {"x": 4, "y": 4, "z": 4}, 6)
        result = csa_opt_reduce(build.netlist, build.matrix)
        _finish_and_check(expression, signals, build, result, 6)


class TestMultipliers:
    @pytest.mark.parametrize("style", ["wallace_cpa", "array"])
    def test_exhaustive_small_multiplier(self, style):
        netlist = Netlist("mult")
        a = netlist.add_input_bus("a", 3)
        b = netlist.add_input_bus("b", 3)
        product = unsigned_multiplier(netlist, a, b, 6, style=style)
        netlist.set_output_bus(product)
        for value_a, value_b in itertools.product(range(8), repeat=2):
            values = evaluate_netlist(netlist, {"a": value_a, "b": value_b})
            assert bus_value(values, product) == value_a * value_b

    def test_truncated_result_width(self):
        netlist = Netlist("mult")
        a = netlist.add_input_bus("a", 4)
        b = netlist.add_input_bus("b", 4)
        product = unsigned_multiplier(netlist, a, b, 4)
        netlist.set_output_bus(product)
        values = evaluate_netlist(netlist, {"a": 13, "b": 11})
        assert bus_value(values, product) == (13 * 11) % 16

    def test_bad_style_rejected(self):
        netlist = Netlist("mult")
        a = netlist.add_input_bus("a", 2)
        with pytest.raises(NetlistError):
            unsigned_multiplier(netlist, a, a, 4, style="bogus")

    def test_bad_width_rejected(self):
        netlist = Netlist("mult")
        a = netlist.add_input_bus("a", 2)
        with pytest.raises(NetlistError):
            unsigned_multiplier(netlist, a, a, 0)


class TestConventionalFinalAdder:
    """``--final-adder`` reaches every addition and multiplier of the
    conventional baseline; its subtractions stay carry-lookahead, the one
    kind that takes a carry-in."""

    @pytest.mark.parametrize("kind", ["kogge_stone", "cla"])
    def test_adder_kind_per_operator(self, kind, monkeypatch):
        from repro.api import Flow, FlowConfig
        from repro.baselines import conventional, multipliers

        built = []

        def spy(module, attribute, record):
            real = getattr(module, attribute)

            def wrapper(*args, **kwargs):
                built.append(record(kwargs))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, attribute, wrapper)

        spy(conventional, "build_final_adder", lambda kw: (kw["name"][:3], kw["kind"]))
        spy(multipliers, "build_final_adder", lambda kw: ("mul", kw["kind"]))
        spy(conventional, "carry_lookahead_adder", lambda kw: (kw["name"][:3], "cla"))
        result = Flow(FlowConfig(method="conventional", final_adder=kind)).run("iir")
        counts = result.stage_artifacts["frontend"].operator_count
        assert sorted(built) == sorted(
            [("add", kind)] * counts["add"]
            + [("mul", kind)] * counts["mul"]
            + [("sub", "cla")] * counts["sub"]
        )
        assert min(counts.values()) > 0
