"""Tests for the addend-matrix builder (expression flattening)."""

import pytest

from repro.bitmatrix.builder import build_addend_matrix
from repro.errors import DesignError
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.sim.evaluator import evaluate_netlist
from repro.sim.stimulus import packed_chunks, unpack_bus


def _matrix_value(build, values):
    """Numeric value represented by the matrix for a given simulation result."""
    total = 0
    for column_index, column in enumerate(build.matrix.columns()):
        for addend in column:
            if addend.net.is_constant:
                bit = addend.net.const_value
            else:
                bit = values[addend.net.name]
            total += bit << column_index
    return total


def _exhaustive_operands(build, signals):
    """Every operand combination, read off the packed exhaustive stimulus."""
    buses = [build.input_buses[name] for name in signals]
    names = [net.name for bus in buses for net in bus.nets]
    for words, count in packed_chunks(names, True, 0, seed=0):
        columns = [
            unpack_bus([words[net.name] for net in bus.nets], count) for bus in buses
        ]
        yield from (dict(zip(signals, values)) for values in zip(*columns))


def _check_matrix_equals_expression(expression_text, signals, width):
    expression = parse_expression(expression_text)
    build = build_addend_matrix(expression, signals, width)
    for vector in _exhaustive_operands(build, signals):
        values = evaluate_netlist(build.netlist, vector)
        expected = expression.evaluate(vector) % (1 << width)
        assert _matrix_value(build, values) % (1 << width) == expected, vector


class TestMatrixValueInvariant:
    """The matrix's weighted sum equals the expression value modulo 2**W."""

    def test_pure_addition(self):
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 3)}
        _check_matrix_equals_expression("x + y + 5", signals, 5)

    def test_subtraction(self):
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 3)}
        _check_matrix_equals_expression("x - y", signals, 4)

    def test_multiplication(self):
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 3)}
        _check_matrix_equals_expression("x*y + 2", signals, 7)

    def test_negative_product_and_constant(self):
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 2), "z": SignalSpec("z", 2)}
        _check_matrix_equals_expression("x*y - z*x + 9 - y", signals, 8)

    def test_cube(self):
        signals = {"x": SignalSpec("x", 3)}
        _check_matrix_equals_expression("x*x*x", signals, 9)

    def test_csd_coefficients_preserve_value(self):
        expression = parse_expression("7*x + 14*y")
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 3)}
        build = build_addend_matrix(expression, signals, 8, use_csd_coefficients=True)
        for vector in _exhaustive_operands(build, signals):
            values = evaluate_netlist(build.netlist, vector)
            assert _matrix_value(build, values) % 256 == expression.evaluate(vector) % 256


class TestBuilderStructure:
    def test_annotations_on_inputs(self):
        expression = parse_expression("x + y")
        signals = {
            "x": SignalSpec("x", 2, arrival=[0.5, 1.0], probability=[0.2, 0.9]),
            "y": SignalSpec("y", 2),
        }
        build = build_addend_matrix(expression, signals, 3)
        x_bus = build.input_buses["x"]
        assert x_bus[1].attributes["arrival"] == 1.0
        assert x_bus[0].attributes["probability"] == 0.2
        column0 = build.matrix.column(0)
        arrivals = sorted(a.arrival for a in column0)
        assert arrivals[-1] == 0.5

    def test_row_identifiers_group_terms(self):
        expression = parse_expression("x*y + x + 3")
        signals = {"x": SignalSpec("x", 2), "y": SignalSpec("y", 2)}
        build = build_addend_matrix(expression, signals, 5)
        rows = {a.row for column in build.matrix.columns() for a in column}
        # one row for x*y, one for x, one for the constant
        assert len(rows) == 3
        assert all(row >= 0 for row in rows)

    def test_coefficient_creates_one_row_per_digit(self):
        expression = parse_expression("5*x")
        signals = {"x": SignalSpec("x", 2)}
        build = build_addend_matrix(expression, signals, 5)
        rows = {a.row for column in build.matrix.columns() for a in column}
        assert len(rows) == 2  # 5 = 101b -> shifts 0 and 2

    def test_gate_counts_reported(self):
        expression = parse_expression("x*y - z")
        signals = {
            "x": SignalSpec("x", 3),
            "y": SignalSpec("y", 3),
            "z": SignalSpec("z", 3),
        }
        build = build_addend_matrix(expression, signals, 7)
        assert build.and_gates == 9
        assert build.not_gates == 3
        assert build.constant_total != 0

    def test_dropped_bits_noted(self):
        # The x4 coefficient shifts partial products past the 6-bit output.
        expression = parse_expression("4*x*y")
        signals = {"x": SignalSpec("x", 4), "y": SignalSpec("y", 4)}
        build = build_addend_matrix(expression, signals, 6)
        assert build.dropped_addends > 0
        assert build.notes

    def test_missing_signal_rejected(self):
        expression = parse_expression("x + y")
        with pytest.raises(DesignError):
            build_addend_matrix(expression, {"x": SignalSpec("x", 2)}, 4)

    def test_bad_width_rejected(self):
        expression = parse_expression("x")
        with pytest.raises(DesignError):
            build_addend_matrix(expression, {"x": SignalSpec("x", 2)}, 0)

    def test_pure_constant_expression(self):
        expression = parse_expression("13")
        build = build_addend_matrix(expression, {}, 5)
        assert build.matrix.heights() == [1, 0, 1, 1, 0]
