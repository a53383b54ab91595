import math

import pytest
from hypothesis import given, strategies as st

from paulimc.weights import (
    HALF,
    INV_SQRT2,
    MINUS_ONE,
    ONE,
    ZERO,
    ExactWeight,
    ModeMismatchError,
    serialize_exact,
    value_is_one,
)

ints = st.integers(-(10**6), 10**6)
exponents = st.integers(0, 40)
ring = st.builds(ExactWeight, ints, ints, exponents)


# -- pinned arithmetic -------------------------------------------------------


def test_inv_sqrt2_squared_is_half():
    assert INV_SQRT2 * INV_SQRT2 == HALF


def test_minus_one_times_half():
    assert MINUS_ONE * HALF == ExactWeight(-1, 0, 1)
    assert float(MINUS_ONE * HALF) == -0.5


def test_conjugate_product_collapses_to_one():
    # (3 + 2*sqrt2)(3 - 2*sqrt2) = 9 - 8 = 1
    assert ExactWeight(3, 2, 0) * ExactWeight(3, -2, 0) == ONE
    assert (ExactWeight(3, 2, 0) * ExactWeight(3, -2, 0)).is_one()


def test_half_plus_half_is_one():
    assert (HALF + HALF).is_one()


def test_zero_and_one_constants():
    assert ZERO.is_zero() and not ZERO.is_one()
    assert ONE.is_one() and not ONE.is_zero()
    assert not INV_SQRT2.is_one() and not INV_SQRT2.is_zero()


# -- ring laws ---------------------------------------------------------------


@given(ring, ring, ring)
def test_addition_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(ring, ring)
def test_addition_commutative(x, y):
    assert x + y == y + x


@given(ring, ring, ring)
def test_multiplication_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(ring, ring)
def test_multiplication_commutative(x, y):
    assert x * y == y * x


@given(ring, ring, ring)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(ring)
def test_additive_inverse(x):
    assert (x + MINUS_ONE * x).is_zero()
    assert x + x * MINUS_ONE == ZERO


@given(ring)
def test_multiplicative_identity(x):
    assert x * ONE == x
    assert x * ZERO == ZERO


# -- canonical form ----------------------------------------------------------


@given(ints, ints, exponents, st.integers(1, 6))
def test_canonical_form_unique(a, b, k, shift):
    # the same number written with a larger denominator must normalize to
    # identical components
    w1 = ExactWeight(a, b, k)
    w2 = ExactWeight(a << shift, b << shift, k + shift)
    assert (w1.a, w1.b, w1.k) == (w2.a, w2.b, w2.k)
    assert hash(w1) == hash(w2)


@given(ring)
def test_not_both_even_while_reduced(w):
    if w.k > 0:
        assert w.a % 2 != 0 or w.b % 2 != 0


def test_zero_normalizes_exponent():
    assert ExactWeight(0, 0, 37) == ZERO
    assert ExactWeight(0, 0, 37).k == 0


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        ExactWeight(1, 0, -1)


def test_immutable():
    with pytest.raises(AttributeError):
        INV_SQRT2.a = 5  # type: ignore[misc]


def test_tuple_constructors_stay_canonical():
    # namedtuple's _make and _replace would otherwise skip __new__
    assert ExactWeight._make((2, 4, 1)) == ExactWeight(1, 2, 0)
    assert HALF._replace(a=2) == ONE
    assert ExactWeight._make((0, 0, 5)).k == 0
    with pytest.raises(ValueError):
        HALF._replace(k=-1)


# -- conversion to float -----------------------------------------------------


@given(st.integers(0, 40), st.sampled_from([1, -1]))
def test_inv_sqrt2_powers_match_floats(j, sign):
    w = ExactWeight(sign)
    for _ in range(j):
        w = w * INV_SQRT2
    expected = sign * 2.0 ** (-j / 2.0)
    assert math.isclose(float(w), expected, rel_tol=1e-15, abs_tol=0.0)


@given(ring)
def test_float_conversion_consistent(w):
    assert float(w) == math.ldexp(w.a + w.b * math.sqrt(2.0), -w.k)


# -- serialization -----------------------------------------------------------


def test_serialized_forms():
    assert serialize_exact(ONE) == "(1+0*sqrt2)/2^0"
    assert serialize_exact(HALF) == "(1+0*sqrt2)/2^1"
    assert serialize_exact(INV_SQRT2) == "(0+1*sqrt2)/2^1"
    assert serialize_exact(ExactWeight(-3, 2, 4)) == "(-3+2*sqrt2)/2^4"
    assert serialize_exact(ExactWeight(2, -1, 1)) == "(2-1*sqrt2)/2^1"
    assert str(INV_SQRT2) == "(0+1*sqrt2)/2^1"

    assert repr(INV_SQRT2) == "ExactWeight(0, 1, 1)"


# -- mode discipline ---------------------------------------------------------


def test_float_mixing_raises():
    with pytest.raises(ModeMismatchError):
        ONE + 0.5
    with pytest.raises(ModeMismatchError):
        HALF * 2.0
    with pytest.raises(ModeMismatchError):
        0.5 * HALF


@pytest.mark.parametrize("op", [
    lambda w: 2 * w,
    lambda w: w * 2,
    lambda w: w + 1,
    lambda w: 1 + w,
    lambda w: w + (1, 0, 0),
    lambda w: (1, 0, 0) + w,
], ids=["int*w", "w*int", "w+int", "int+w", "w+tuple", "tuple+w"])
def test_foreign_operands_raise(op):
    # no int coercion, and no tuple repetition or concatenation either
    with pytest.raises(TypeError):
        op(HALF)


@pytest.mark.parametrize("op", [
    lambda w, v: w < v,
    lambda w, v: w <= v,
    lambda w, v: w > v,
    lambda w, v: w >= v,
], ids=["lt", "le", "gt", "ge"])
def test_values_are_unordered(op):
    with pytest.raises(TypeError):
        op(HALF, ONE)


def test_value_is_one():
    assert value_is_one(ONE)
    assert not value_is_one(INV_SQRT2)
    assert value_is_one(1.0 - 1e-12, 1e-10)
    assert not value_is_one(1.0 - 1e-12, 1e-13)
    # structural in exact mode: epsilon plays no role
    assert not value_is_one(ExactWeight(1, 0, 0) + ExactWeight(1, 0, 40), 1.0)


def test_comparison_against_non_numbers():
    assert ONE != "one"
    assert ONE != 1  # no int coercion, in equality either
