"""Tests for the expression AST."""

import pytest

from repro.errors import ExpressionError
from repro.expr.ast import Add, Const, Mul, Neg, Sub, Var


class TestConstruction:
    def test_operator_overloading(self):
        x, y = Var("x"), Var("y")
        expr = x * x + 2 * x * y + y * y + 2 * x + 2 * y + 1
        assert expr.evaluate({"x": 3, "y": 4}) == (3 + 4 + 1) ** 2

    def test_subtraction_and_negation(self):
        x, y = Var("x"), Var("y")
        assert (x - y).evaluate({"x": 10, "y": 3}) == 7
        assert (-x).evaluate({"x": 5}) == -5
        assert (1 - x).evaluate({"x": 5}) == -4

    def test_power(self):
        x = Var("x")
        assert (x ** 3).evaluate({"x": 2}) == 8
        assert (x ** 1).evaluate({"x": 7}) == 7
        with pytest.raises(ExpressionError):
            _ = x ** 0
        with pytest.raises(ExpressionError):
            _ = x ** -1

    def test_right_hand_operators(self):
        x = Var("x")
        assert (3 + x).evaluate({"x": 1}) == 4
        assert (3 * x).evaluate({"x": 2}) == 6
        assert (3 - x).evaluate({"x": 1}) == 2

    def test_invalid_constant(self):
        with pytest.raises(ExpressionError):
            Const(1.5)  # type: ignore[arg-type]
        with pytest.raises(ExpressionError):
            Const(True)  # type: ignore[arg-type]

    def test_invalid_variable_name(self):
        with pytest.raises(ExpressionError):
            Var("")

    def test_coerce_rejects_non_numeric(self):
        x = Var("x")
        with pytest.raises(ExpressionError):
            _ = x + "y"  # type: ignore[operator]


class TestIntrospection:
    def test_variables_in_order_without_duplicates(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        expr = x * y + z - x
        assert expr.variables() == ["x", "y", "z"]

    def test_depth_and_node_count(self):
        x = Var("x")
        assert x.depth() == 1
        assert x.node_count() == 1
        expr = x * x + 1
        assert expr.depth() == 3
        assert expr.node_count() == 5

    def test_missing_binding_raises(self):
        with pytest.raises(ExpressionError):
            Var("x").evaluate({})

    def test_str_rendering(self):
        x, y = Var("x"), Var("y")
        assert str(x + y) == "(x + y)"
        assert str(x - y) == "(x - y)"
        assert str(-x) == "(-x)"
        assert str(Const(5)) == "5"


class TestEqualityAndHash:
    def test_structural_equality(self):
        x = Var("x")
        assert x == Var("x")
        assert Const(3) == Const(3)
        assert (x + 1) == (Var("x") + 1)
        assert (x + 1) != (x - 1)
        assert Neg(x) == Neg(Var("x"))

    def test_hashable(self):
        x = Var("x")
        seen = {x + 1, x + 1, x * 2}
        assert len(seen) == 2


class TestNodeTypes:
    def test_node_types(self):
        x = Var("x")
        assert isinstance(x + x, Add)
        assert isinstance(x - x, Sub)
        assert isinstance(x * x, Mul)
        assert isinstance(-x, Neg)
