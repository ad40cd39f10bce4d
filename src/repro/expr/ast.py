"""Expression AST.

The AST covers exactly the operator set the paper handles — addition,
subtraction, multiplication and negation over variables and integer constants.
Nodes are immutable; Python's arithmetic operators are overloaded so that
expressions read naturally::

    x, y = Var("x"), Var("y")
    f = x * x + 2 * x * y + y * y + 2 * x + 2 * y + 1
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Union

from repro.errors import ExpressionError

Number = Union[int, "Expression"]


def _coerce(value: Number) -> "Expression":
    """Turn a Python int into a :class:`Const`; pass expressions through."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, bool):
        raise ExpressionError("booleans are not valid expression constants")
    if isinstance(value, int):
        return Const(value)
    raise ExpressionError(f"cannot use {value!r} as an arithmetic expression")


class Expression:
    """Base class of all expression nodes."""

    #: subclasses override with their children (tuple of Expression)
    __slots__ = ()

    # ---------------------------------------------------------------- algebra
    def __add__(self, other: Number) -> "Expression":
        return Add(self, _coerce(other))

    def __radd__(self, other: Number) -> "Expression":
        return Add(_coerce(other), self)

    def __sub__(self, other: Number) -> "Expression":
        return Sub(self, _coerce(other))

    def __rsub__(self, other: Number) -> "Expression":
        return Sub(_coerce(other), self)

    def __mul__(self, other: Number) -> "Expression":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Number) -> "Expression":
        return Mul(_coerce(other), self)

    def __neg__(self) -> "Expression":
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expression":
        if not isinstance(exponent, int) or exponent < 1:
            raise ExpressionError("only integer exponents >= 1 are supported")
        result: Expression = self
        for _ in range(exponent - 1):
            result = Mul(result, self)
        return result

    # -------------------------------------------------------------- interface
    def children(self) -> List["Expression"]:
        """Direct sub-expressions (empty for leaves)."""
        return []

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate the expression with integer variable bindings."""
        raise NotImplementedError

    def variables(self) -> List[str]:
        """Variable names, in first-appearance order, without duplicates."""
        seen: Dict[str, None] = {}

        def visit(node: Expression) -> None:
            if isinstance(node, Var):
                seen.setdefault(node.name, None)
            for child in node.children():
                visit(child)

        visit(self)
        return list(seen)

    def depth(self) -> int:
        """Height of the expression tree (leaves have depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def node_count(self) -> int:
        """Total number of AST nodes."""
        return 1 + sum(child.node_count() for child in self.children())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self})"


class Var(Expression):
    """A named input operand (bit-width and signal data live in SignalSpec)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ExpressionError(f"invalid variable name {name!r}")
        self.name = name

    def evaluate(self, env: Mapping[str, int]) -> int:
        if self.name not in env:
            raise ExpressionError(f"no binding for variable {self.name!r}")
        return int(env[self.name])

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


class Const(Expression):
    """An integer constant (possibly negative)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ExpressionError(f"constant must be an int, got {value!r}")
        self.value = value

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class _BinaryOp(Expression):
    """Shared plumbing for binary operators."""

    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left: Number, right: Number) -> None:
        self.left = _coerce(left)
        self.right = _coerce(right)

    def children(self) -> List[Expression]:
        return [self.left, self.right]

    def __str__(self) -> str:
        return f"({self.left} {self.symbol} {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.left == self.left  # type: ignore[attr-defined]
            and other.right == self.right  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right))


class Add(_BinaryOp):
    """Addition node."""

    __slots__ = ()
    symbol = "+"

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) + self.right.evaluate(env)


class Sub(_BinaryOp):
    """Subtraction node."""

    __slots__ = ()
    symbol = "-"

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) - self.right.evaluate(env)


class Mul(_BinaryOp):
    """Multiplication node."""

    __slots__ = ()
    symbol = "*"

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) * self.right.evaluate(env)


class Neg(Expression):
    """Unary negation node."""

    __slots__ = ("operand",)

    def __init__(self, operand: Number) -> None:
        self.operand = _coerce(operand)

    def children(self) -> List[Expression]:
        return [self.operand]

    def evaluate(self, env: Mapping[str, int]) -> int:
        return -self.operand.evaluate(env)

    def __str__(self) -> str:
        return f"(-{self.operand})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Neg) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("Neg", self.operand))
