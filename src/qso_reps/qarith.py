"""Half-integer bookkeeping and q-number arithmetic at a fixed real q.

Every weight entry, l-coordinate and exponent in this package is a
half-integer.  To keep q^(1/2) bookkeeping exact they are stored as doubled
integers (``HalfInt.twice``); floats only appear once a q-power or q-bracket
is evaluated through a :class:`QContext`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import total_ordering


class ValidationError(ValueError):
    """Raised when a label, weight or pattern violates its invariants."""


class SingularCoefficientError(ArithmeticError):
    """Raised when a matrix-element denominator vanishes unexpectedly."""


@total_ordering
class HalfInt:
    """Exact half-integer; the value is ``twice / 2``."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"twice must be int, got {type(twice).__name__}")
        self.twice = twice

    @classmethod
    def of(cls, value: "HalfInt | int") -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        return cls(2 * value)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse ``"2"``, ``"-1"``, ``"3/2"`` or ``"-1/2"``."""
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if den.strip() != "2":
                raise ValidationError(f"half-integers must have denominator 2: {text!r}")
            return cls(int(num))
        return cls(2 * int(text))

    @property
    def is_integral(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __mul__(self, other: int) -> "HalfInt":
        if not isinstance(other, int):
            return NotImplemented
        return HalfInt(self.twice * other)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __lt__(self, other: "HalfInt | int") -> bool:
        return self.twice < HalfInt.of(other).twice

    def __hash__(self) -> int:
        return hash(self.twice)

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def half(twice: int) -> HalfInt:
    """Shorthand for ``HalfInt(twice)`` (argument is the doubled value)."""
    return HalfInt(twice)


@dataclass(frozen=True)
class QContext:
    """Evaluation point q, the tolerance all numeric checks run at, and the
    values derived at q (`cache`), which live as long as the context.

    q must be a finite positive real different from 1; the bracket formulas
    divide by q - 1/q.  tol must be finite and positive.
    """

    q: float
    tol: float = 1e-9
    cache: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if not (0.0 < self.q < math.inf):
            raise ValidationError(f"q must be positive and finite, got {self.q}")
        if abs(self.q - 1.0) <= 1e-12:
            raise ValidationError("q must differ from 1")
        if not (0.0 < self.tol < math.inf):
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")

    def tolerance(self, scale: float = 1.0) -> float:
        """Mixed absolute/relative tolerance for a quantity of given scale."""
        return self.tol + self.tol * abs(scale)


def q_power(a: HalfInt | int, ctx: QContext) -> float:
    """q raised to the half-integer exponent a."""
    return ctx.q ** (HalfInt.of(a).twice / 2.0)


def q_bracket(a: HalfInt | int, ctx: QContext) -> float:
    """Symmetric q-number (q^a - q^-a)/(q - 1/q); odd in a."""
    qa = q_power(a, ctx)
    return (qa - 1.0 / qa) / (ctx.q - 1.0 / ctx.q)


def q_bracket_plus(a: HalfInt | int, ctx: QContext) -> float:
    """Even companion (q^a + q^-a)/(q - 1/q) used by nonclassical irreps."""
    qa = q_power(a, ctx)
    return (qa + 1.0 / qa) / (ctx.q - 1.0 / ctx.q)
