from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sheetcharge.exact import Rad2, pow2_half

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
)
rad2s = st.builds(Rad2, rationals, rationals)


def test_pow2_half_even_is_fraction():
    assert pow2_half(4) == Fraction(4)
    assert pow2_half(0) == 1
    assert pow2_half(-2) == Fraction(1, 2)


def test_pow2_half_odd_squares_to_power_of_two():
    x = pow2_half(3)
    assert isinstance(x, Rad2)
    assert x * x == Fraction(8)
    assert pow2_half(-1) * pow2_half(-1) == Fraction(1, 2)


def test_mixed_arithmetic_with_rationals():
    x = Rad2(1, 1)
    assert x + Fraction(1, 2) == Rad2(Fraction(3, 2), 1)
    assert 2 * x == Rad2(2, 2)
    assert Fraction(1) - x == Rad2(0, -1)
    assert x * Fraction(1, 2) == Rad2(Fraction(1, 2), Fraction(1, 2))


def test_equality_against_rationals():
    assert Rad2(3, 0) == 3
    assert Rad2(3, 0) == Fraction(3)
    assert Rad2(3, 1) != 3
    assert hash(Rad2(3, 0)) == hash(Fraction(3))


def test_float_conversion():
    assert float(Rad2(0, 1)) == pytest.approx(2**0.5)
    assert float(Rad2(1, -1)) == pytest.approx(1 - 2**0.5)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Rad2(1, 0) + 0.5  # type: ignore[operator]


@given(rad2s, rad2s, rad2s)
def test_ring_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@given(rad2s)
def test_negation_and_zero(x):
    assert x + (-x) == Rad2(0, 0)
    assert not (x - x)


def pell_convergent(k: int) -> tuple[int, int]:
    """k-th convergent p/q of sqrt(2): p^2 - 2 q^2 = (-1)^(k+1)."""
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return p, q


def test_near_cancellation_regression():
    x = Rad2(367296043199, -259717522849)  # 1 / (a - b sqrt 2) ~ 1.4e-12 in magnitude
    assert x < 0 and x <= 0 and not x >= 0
    assert float(x) < 0
    assert abs(x) == -x and abs(x) > 0


@given(
    st.integers(1, 80),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=50).filter(bool),
)
def test_pell_convergents_exact_sign_and_float(k, scale):
    p, q = pell_convergent(k)
    norm = p * p - 2 * q * q  # +-1
    x = Rad2(p, -q) * scale  # scale * norm / (p + q sqrt 2): tiny, with a known sign
    sign = 1 if norm * scale > 0 else -1
    assert (x > 0) == (sign > 0) and (x < 0) == (sign < 0)
    assert (x <= Fraction(0)) == (sign < 0) and (Fraction(0) < x) == (sign > 0)
    assert abs(x) == (x if sign > 0 else -x)
    assert abs(x) >= 0 and -abs(x) <= 0
    want = float(norm * scale) / (p + q * 2**0.5)
    assert float(x) == pytest.approx(want, rel=1e-12)
    assert float(-x) == -float(x)


@given(rad2s, rad2s)
def test_order_is_total_and_matches_difference(x, y):
    assert (x < y) + (x == y) + (x > y) == 1
    assert (x <= y) == (x < y or x == y)
    assert (x < y) == (y - x > 0)
