"""Tests for the conventional operator-level synthesis baseline."""

import pytest

from repro.baselines.conventional import conventional_synthesis
from repro.errors import DesignError
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType
from repro.sim.equivalence import check_equivalence
from repro.timing.arrival import compute_arrival_times


def _check(expression_text, widths, output_width, **kwargs):
    expression = parse_expression(expression_text)
    signals = {name: SignalSpec(name, width) for name, width in widths.items()}
    result = conventional_synthesis(expression, signals, output_width, **kwargs)
    report = check_equivalence(
        result.netlist, result.output_bus, expression, signals, output_width=output_width
    )
    report.assert_ok()
    return result


class TestEquivalence:
    def test_addition_chain(self):
        result = _check("x + y + z + 5", {"x": 3, "y": 3, "z": 3}, 6)
        assert result.operator_count["add"] >= 2

    def test_subtraction_and_negation(self):
        _check("x - y - 3", {"x": 4, "y": 4}, 6)
        _check("-x + y", {"x": 3, "y": 3}, 5)

    def test_multiplication(self):
        result = _check("x*y + z", {"x": 3, "y": 3, "z": 4}, 7)
        assert result.operator_count["mul"] == 1

    def test_product_of_sums_not_flattened(self):
        """The conventional flow keeps the operator structure as written."""
        result = _check("g*(a + b + c)", {"g": 3, "a": 3, "b": 3, "c": 3}, 6)
        assert result.operator_count["mul"] == 1
        assert result.operator_count["add"] == 2

    def test_mixed_paper_expression(self):
        _check("x + y - z + x*y - y*z + 10", {"x": 3, "y": 3, "z": 3}, 8)

    def test_subtraction_feeding_multiplication(self):
        """A signed intermediate entering a multiplier is handled correctly."""
        _check("(x - y)*z", {"x": 3, "y": 3, "z": 3}, 7)

    def test_constant_only_expression(self):
        result = _check("7", {}, 4)
        assert result.output_bus.width == 4

    def test_array_multiplier_style(self):
        _check("x*y", {"x": 3, "y": 3}, 6, multiplier_style="array")

    def test_unbalanced_tree_option(self):
        _check(
            "a + b + c + d", {"a": 3, "b": 3, "c": 3, "d": 3}, 5, balance_operator_trees=False
        )


class TestStructure:
    def test_operator_boundaries_create_carry_propagation(self, library):
        """The conventional design is slower than the flattened one on a sum of
        products — the structural weakness the paper exploits."""
        from repro.designs.registry import get_design
        from repro.api import Flow, FlowConfig

        design = get_design("mixed_products")
        conventional = Flow(FlowConfig(method="conventional")).run(design, library=library)
        fa_aot = Flow(FlowConfig(method="fa_aot")).run(design, library=library)
        assert fa_aot.delay_ns < conventional.delay_ns

    def test_balanced_tree_is_not_slower_than_chain(self, library):
        expression = parse_expression("a + b + c + d + e + f + g + h")
        signals = {name: SignalSpec(name, 8) for name in "abcdefgh"}
        balanced = conventional_synthesis(expression, signals, 11, library=library)
        chained = conventional_synthesis(
            expression, signals, 11, library=library, balance_operator_trees=False
        )
        delay_balanced = compute_arrival_times(balanced.netlist, library).delay
        delay_chained = compute_arrival_times(chained.netlist, library).delay
        assert delay_balanced <= delay_chained + 1e-9

    def test_input_annotations_respected(self, library):
        expression = parse_expression("x + y")
        signals = {
            "x": SignalSpec("x", 4, arrival=2.0, probability=0.2),
            "y": SignalSpec("y", 4),
        }
        result = conventional_synthesis(expression, signals, 5, library=library)
        x_net = result.netlist.input_buses["x"][0]
        assert x_net.attributes["arrival"] == 2.0
        assert x_net.attributes["probability"] == 0.2
        timing = compute_arrival_times(result.netlist, library)
        assert timing.delay >= 2.0

    def test_adders_present(self):
        result = _check("x + y", {"x": 4, "y": 4}, 5)
        xor_cells = result.netlist.cells_of_type(CellType.XOR2)
        assert xor_cells, "a carry-lookahead adder should contain XOR gates"

    def test_missing_signal_rejected(self):
        expression = parse_expression("x + y")
        with pytest.raises(DesignError):
            conventional_synthesis(expression, {"x": SignalSpec("x", 2)}, 4)

    def test_bad_width_rejected(self):
        expression = parse_expression("x")
        with pytest.raises(DesignError):
            conventional_synthesis(expression, {"x": SignalSpec("x", 2)}, 0)
