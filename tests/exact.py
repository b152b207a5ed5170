"""Exact scalars of the form a + b*sqrt(2) over the rationals, for the test oracles.

Haar amplitudes on dyadic grids are powers 2**(e/2), irrational whenever
the exponent e is odd.  Carrying the sqrt(2) part symbolically keeps the
oracles' orthonormality, reconstruction, and coefficient tables exact
instead of "equal up to 1e-15"; the package itself computes in float64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def pow2_half(e: int) -> Fraction | "Rad2":
    """Return 2**(e/2) exactly; a plain Fraction when e is even."""
    if e % 2 == 0:
        return Fraction(2) ** (e // 2)
    return Rad2(0, Fraction(2) ** ((e - 1) // 2))


_SQRT2 = 1.4142135623730951


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class Rad2:
    """Number a + b*sqrt(2), a and b rational.

    Closed under +, -, * and mixes freely with int/Fraction operands.
    Division and float operands are deliberately unsupported: anything
    leaving the exact world should go through float() explicitly.  Signs
    and order (``abs``, ``<``, ``<=``, ...) are decided exactly.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        # Arithmetic results are Fractions already; wrapping them again cost as much as it.
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    @staticmethod
    def _coerce(x) -> "Rad2 | None":
        if isinstance(x, Rad2):
            return x
        if isinstance(x, Rational):
            return Rad2(Fraction(x), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rad2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rad2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rad2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        if isinstance(other, Rational):  # q (a + b sqrt 2) = qa + qb sqrt 2: two products, not four
            return Rad2(self.a * other, self.b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Rad2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self):
        return Rad2(-self.a, -self.b)

    def _sign(self) -> int:
        """-1, 0 or 1, decided exactly: a and b*sqrt(2) are compared through a^2 vs 2b^2."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        # a^2 == 2b^2 has no nonzero rational solution, so the comparison is strict.
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() <= 0

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # sqrt(2) is irrational, so a + b*sqrt(2) equals a rational iff b == 0
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        if self.a * self.b >= 0:
            return float(self.a) + float(self.b) * _SQRT2
        # Opposite signs would cancel: use (a^2 - 2b^2) / (a - b*sqrt(2)), an
        # exact numerator over a denominator whose two terms share a sign.
        den = float(self.a) - float(self.b) * _SQRT2
        return float((self.a * self.a - 2 * self.b * self.b) / Fraction(den))

    def __repr__(self) -> str:
        return f"Rad2({self.a!r}, {self.b!r})"
