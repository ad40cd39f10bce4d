"""Tests for the radix-4 Booth recoding extension."""

import itertools

import pytest

from repro.adders.factory import build_final_adder
from repro.bitmatrix.booth import booth_digit_count, booth_partial_products
from repro.bitmatrix.builder import build_addend_matrix
from repro.bitmatrix.partial_products import ProductBitFactory
from repro.core.fa_aot import fa_aot
from repro.errors import AllocationError, DesignError
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.netlist.core import Netlist
from repro.sim.equivalence import check_equivalence
from repro.sim.evaluator import evaluate_netlist
from repro.tech.default_libs import generic_035


def _synthesize(expression_text, widths, output_width, style):
    expression = parse_expression(expression_text)
    signals = {name: SignalSpec(name, width) for name, width in widths.items()}
    build = build_addend_matrix(
        expression, signals, output_width, multiplication_style=style
    )
    result = fa_aot(build.netlist, build.matrix)
    rows = [[a.net if a else None for a in row] for row in result.rows]
    bus = build_final_adder(build.netlist, rows[0], rows[1], output_width)
    build.netlist.set_output_bus(bus)
    return expression, signals, build, bus


class TestDigitCount:
    def test_values(self):
        assert booth_digit_count(1) == 1
        assert booth_digit_count(2) == 2
        assert booth_digit_count(8) == 5
        assert booth_digit_count(16) == 9

    def test_invalid_width(self):
        with pytest.raises(AllocationError):
            booth_digit_count(0)


class TestBoothPartialProducts:
    @pytest.mark.parametrize("nx,ny", [(3, 3), (4, 3), (3, 4), (4, 4), (1, 4), (4, 1)])
    def test_exhaustive_value(self, nx, ny):
        """Booth PPs plus corrections equal x*y for every input combination."""
        netlist = Netlist("booth")
        factory = ProductBitFactory(netlist, generic_035())
        x_bus = netlist.add_input_bus("x", nx)
        y_bus = netlist.add_input_bus("y", ny)
        from repro.bitmatrix.partial_products import BitSignal

        x_bits = [BitSignal(net, 0.0, 0.5) for net in x_bus.nets]
        y_bits = [BitSignal(net, 0.0, 0.5) for net in y_bus.nets]
        width = nx + ny + 2
        products, correction = booth_partial_products(factory, x_bits, y_bits, width)
        for x_val, y_val in itertools.product(range(1 << nx), range(1 << ny)):
            values = evaluate_netlist(netlist, {"x": x_val, "y": y_val})
            total = correction
            for product in products:
                bit = (
                    product.signal.net.const_value
                    if product.signal.net.is_constant
                    else values[product.signal.net.name]
                )
                total += bit << product.column
            assert total % (1 << width) == (x_val * y_val) % (1 << width), (x_val, y_val)

    def test_empty_operands_rejected(self):
        netlist = Netlist("booth")
        factory = ProductBitFactory(netlist, generic_035())
        with pytest.raises(AllocationError):
            booth_partial_products(factory, [], [], 8)

    def test_row_count_savings_at_large_width(self):
        """At 16x16, Booth produces fewer matrix addends than the AND array."""
        widths = {"x": 16, "y": 16}
        expression = parse_expression("x*y")
        signals = {name: SignalSpec(name, width) for name, width in widths.items()}
        and_array = build_addend_matrix(expression, signals, 32)
        booth = build_addend_matrix(expression, signals, 32, multiplication_style="booth")
        assert booth.matrix.total_addends() < and_array.matrix.total_addends()
        assert booth.matrix.max_height() < and_array.matrix.max_height()


class TestBoothThroughTheFlow:
    @pytest.mark.parametrize(
        "expression_text,widths,width",
        [
            ("x*y", {"x": 4, "y": 4}, 8),
            ("x*y - z + 11", {"x": 3, "y": 4, "z": 4}, 8),
            ("x*x + 2*x*y", {"x": 3, "y": 3}, 8),
            ("x*y*z + x", {"x": 2, "y": 2, "z": 2}, 7),  # degree-3 falls back to AND array
        ],
    )
    def test_equivalence(self, expression_text, widths, width):
        expression, signals, build, bus = _synthesize(expression_text, widths, width, "booth")
        check_equivalence(build.netlist, bus, expression, signals, output_width=width).assert_ok()

    def test_flow_option(self):
        from repro.designs.registry import get_design
        from repro.api import Flow, FlowConfig

        design = get_design("x2")
        result = Flow(FlowConfig(method="fa_aot", multiplication_style="booth")).run(design)
        check_equivalence(
            result.netlist,
            result.output_bus,
            design.expression,
            design.signals,
            output_width=design.output_width,
        ).assert_ok()

    def test_unknown_style_rejected(self):
        expression = parse_expression("x*y")
        signals = {"x": SignalSpec("x", 2), "y": SignalSpec("y", 2)}
        with pytest.raises(DesignError):
            build_addend_matrix(expression, signals, 4, multiplication_style="karatsuba")
