"""Lowering of expression ASTs to flat sum-of-products term lists.

The addend-matrix builder consumes a *term list*: each :class:`Term` is an
integer coefficient times a product of variables, and the expression equals
the sum of all terms.  Lowering distributes multiplication over addition, so
``(x + y) * (x - 2)`` becomes ``x*x - 2*x + x*y - 2*y``.

This is exactly the "translate the arithmetic expression into an addition
expression" step of the paper (Section 1): after lowering, the whole
expression is a single multi-operand addition whose operands are either
variables (shifted by constant-coefficient powers of two), products of
variables (expanded into partial products), or constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.errors import ExpressionError
from repro.expr.ast import Add, Const, Expression, Mul, Neg, Sub, Var


@dataclass(frozen=True)
class Term:
    """``coefficient * product(factors)`` where factors are variable names.

    ``factors`` is a tuple of variable names (repeats allowed — ``("x", "x")``
    is x squared); an empty tuple denotes a pure constant term.
    """

    coefficient: int
    factors: Tuple[str, ...]

    @property
    def is_constant(self) -> bool:
        """True when the term has no variable factors."""
        return not self.factors

    @property
    def degree(self) -> int:
        """Number of variable factors (0 for constants)."""
        return len(self.factors)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate the term with integer variable bindings."""
        value = self.coefficient
        for name in self.factors:
            if name not in env:
                raise ExpressionError(f"no binding for variable {name!r}")
            value *= int(env[name])
        return value

    def __str__(self) -> str:
        if not self.factors:
            return str(self.coefficient)
        product = "*".join(self.factors)
        if self.coefficient == 1:
            return product
        if self.coefficient == -1:
            return f"-{product}"
        return f"{self.coefficient}*{product}"


def lower_to_terms(expression: Expression) -> List[Term]:
    """Expand ``expression`` into a list of terms whose sum equals it.

    The expansion preserves the order in which terms appear in the source
    expression (left to right); it does *not* combine like terms — use
    :func:`combine_terms` when a combined form is wanted.  Terms with a zero
    coefficient are dropped.
    """

    def visit(node: Expression) -> List[Term]:
        if isinstance(node, Const):
            return [Term(node.value, ())]
        if isinstance(node, Var):
            return [Term(1, (node.name,))]
        if isinstance(node, Neg):
            return [Term(-t.coefficient, t.factors) for t in visit(node.operand)]
        if isinstance(node, Add):
            return visit(node.left) + visit(node.right)
        if isinstance(node, Sub):
            right = [Term(-t.coefficient, t.factors) for t in visit(node.right)]
            return visit(node.left) + right
        if isinstance(node, Mul):
            left_terms = visit(node.left)
            right_terms = visit(node.right)
            product: List[Term] = []
            for left in left_terms:
                for right in right_terms:
                    product.append(
                        Term(
                            left.coefficient * right.coefficient,
                            left.factors + right.factors,
                        )
                    )
            return product
        raise ExpressionError(f"cannot lower expression node {type(node).__name__}")

    return [term for term in visit(expression) if term.coefficient != 0]


def combine_terms(terms: List[Term]) -> List[Term]:
    """Combine terms with identical factor multisets by summing coefficients.

    The factor multiset is order-insensitive (``x*y`` merges with ``y*x``).
    Terms whose combined coefficient is zero are dropped.  First-appearance
    order of factor groups is preserved.
    """
    combined: Dict[Tuple[str, ...], int] = {}
    order: List[Tuple[str, ...]] = []
    canonical: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    for term in terms:
        key = tuple(sorted(term.factors))
        if key not in combined:
            combined[key] = 0
            order.append(key)
            canonical[key] = term.factors
        combined[key] += term.coefficient
    return [
        Term(combined[key], canonical[key])
        for key in order
        if combined[key] != 0
    ]
