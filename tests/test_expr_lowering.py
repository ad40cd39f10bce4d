"""Tests for expression lowering to sum-of-products terms."""

from hypothesis import given, strategies as st

from repro.expr.ast import Const, Expression, Neg, Var
from repro.expr.lowering import Term, combine_terms, lower_to_terms
from repro.expr.parser import parse_expression


class TestLowering:
    def test_simple_sum(self):
        terms = lower_to_terms(parse_expression("x + y + 3"))
        assert terms == [Term(1, ("x",)), Term(1, ("y",)), Term(3, ())]

    def test_distribution(self):
        terms = lower_to_terms(parse_expression("(x + y) * (x - 2)"))
        assert Term(1, ("x", "x")) in terms
        assert Term(-2, ("x",)) in terms
        assert Term(1, ("y", "x")) in terms
        assert Term(-2, ("y",)) in terms

    def test_negation_of_product(self):
        terms = lower_to_terms(parse_expression("-(x*y) + 5"))
        assert terms == [Term(-1, ("x", "y")), Term(5, ())]

    def test_nested_negation(self):
        terms = lower_to_terms(Neg(Neg(Var("x"))))
        assert terms == [Term(1, ("x",))]

    def test_zero_terms_dropped(self):
        terms = lower_to_terms(parse_expression("0*x + y"))
        assert terms == [Term(1, ("y",))]

    def test_degree_and_constant_flags(self):
        constant, linear, cubic = Term(4, ()), Term(2, ("x",)), Term(1, ("x", "x", "y"))
        assert constant.is_constant and constant.degree == 0
        assert not linear.is_constant and linear.degree == 1
        assert cubic.degree == 3

    def test_term_string(self):
        assert str(Term(1, ("x", "y"))) == "x*y"
        assert str(Term(-1, ("x",))) == "-x"
        assert str(Term(3, ("x",))) == "3*x"
        assert str(Term(7, ())) == "7"


class TestCombineTerms:
    def test_like_terms_merge_regardless_of_order(self):
        terms = lower_to_terms(parse_expression("x*y + y*x"))
        combined = combine_terms(terms)
        assert len(combined) == 1
        assert combined[0].coefficient == 2

    def test_cancellation_drops_term(self):
        combined = combine_terms(lower_to_terms(parse_expression("x - x + y")))
        assert combined == [Term(1, ("y",))]

    def test_constants_merge(self):
        combined = combine_terms(lower_to_terms(parse_expression("3 + x + 4")))
        assert Term(7, ()) in combined


@st.composite
def random_expressions(draw, max_depth=4):
    """Random expressions over three variables and small constants."""
    variables = ["a", "b", "c"]

    def build(depth: int) -> Expression:
        if depth == 0 or draw(st.booleans()):
            if draw(st.booleans()):
                return Var(draw(st.sampled_from(variables)))
            return Const(draw(st.integers(min_value=-4, max_value=4)))
        kind = draw(st.sampled_from(["add", "sub", "mul", "neg"]))
        if kind == "neg":
            return Neg(build(depth - 1))
        left, right = build(depth - 1), build(depth - 1)
        if kind == "add":
            return left + right
        if kind == "sub":
            return left - right
        return left * right

    return build(max_depth)


@given(
    random_expressions(),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_lowering_preserves_value(expression, a, b, c):
    """Sum of lowered terms equals the expression for any assignment."""
    env = {"a": a, "b": b, "c": c}
    expected = expression.evaluate(env)
    assert sum(term.evaluate(env) for term in lower_to_terms(expression)) == expected
    combined = combine_terms(lower_to_terms(expression))
    assert sum(term.evaluate(env) for term in combined) == expected
