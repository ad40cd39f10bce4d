"""Tests for the optional squarer optimization (folded x*x partial products)."""

import itertools

import pytest

from repro.adders.factory import build_final_adder
from repro.bitmatrix.builder import build_addend_matrix
from repro.core.fa_aot import fa_aot
from repro.designs.registry import get_design
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.api import Flow, FlowConfig
from repro.sim.equivalence import check_equivalence
from repro.sim.evaluator import bus_value, evaluate_netlist


def _synthesize(expression_text, widths, output_width, fold):
    expression = parse_expression(expression_text)
    signals = {name: SignalSpec(name, width) for name, width in widths.items()}
    build = build_addend_matrix(
        expression, signals, output_width, fold_square_products=fold
    )
    result = fa_aot(build.netlist, build.matrix)
    rows = [[a.net if a else None for a in row] for row in result.rows]
    bus = build_final_adder(build.netlist, rows[0], rows[1], output_width)
    build.netlist.set_output_bus(bus)
    return expression, signals, build, bus


class TestFoldedSquares:
    @pytest.mark.parametrize("width,output_width", [(3, 6), (4, 8), (5, 10), (4, 5)])
    def test_exhaustive_equivalence(self, width, output_width):
        expression, signals, build, bus = _synthesize(
            "x*x", {"x": width}, output_width, fold=True
        )
        for value in range(1 << width):
            values = evaluate_netlist(build.netlist, {"x": value})
            assert bus_value(values, bus) == (value * value) % (1 << output_width)

    def test_mixed_expression_equivalence(self):
        expression, signals, build, bus = _synthesize(
            "x*x + 2*x*y + y*y + 2*x + 2*y + 1", {"x": 3, "y": 3}, 9, fold=True
        )
        for x_val, y_val in itertools.product(range(8), repeat=2):
            values = evaluate_netlist(build.netlist, {"x": x_val, "y": y_val})
            assert bus_value(values, bus) == ((x_val + y_val + 1) ** 2) % 512

    def test_addend_count_reduced(self):
        signals = {"x": SignalSpec("x", 8)}
        expression = parse_expression("x*x")
        plain = build_addend_matrix(expression, signals, 16)
        folded = build_addend_matrix(expression, signals, 16, fold_square_products=True)
        # 8 diagonal bits + C(8,2)=28 folded pairs vs 64 array products.
        assert plain.matrix.total_addends() == 64
        assert folded.matrix.total_addends() == 36
        assert folded.matrix.max_height() <= plain.matrix.max_height()

    def test_non_square_products_unaffected(self):
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 3)}
        expression = parse_expression("x*y")
        plain = build_addend_matrix(expression, signals, 6)
        folded = build_addend_matrix(expression, signals, 6, fold_square_products=True)
        assert plain.matrix.heights() == folded.matrix.heights()

    def test_through_the_flow(self):
        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot", fold_square_products=True)).run(design)
        check_equivalence(
            result.netlist,
            result.output_bus,
            design.expression,
            design.signals,
            output_width=design.output_width,
        ).assert_ok()
        baseline = Flow(FlowConfig(method="fa_aot")).run(design)
        assert result.cell_count <= baseline.cell_count
        assert result.delay_ns <= baseline.delay_ns + 1e-9

    def test_cube_not_folded(self):
        """Folding only applies to exact squares; x**3 still uses the AND array."""
        expression, signals, build, bus = _synthesize("x*x*x", {"x": 3}, 9, fold=True)
        for value in range(8):
            values = evaluate_netlist(build.netlist, {"x": value})
            assert bus_value(values, bus) == (value ** 3) % 512
