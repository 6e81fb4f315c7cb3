from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kp2.scalars import (
    ONE,
    ZERO,
    ZETA,
    ConsistencyError,
    CycScalar,
    euler_at,
    rat_str,
    weight,
    weight_pow,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=999)
scalars = st.builds(CycScalar, rationals, rationals)


def test_zeta_relations():
    assert ZETA * ZETA == CycScalar(-1, -1)
    assert ZETA ** 3 == ONE
    assert ONE + ZETA + ZETA * ZETA == ZERO


def test_weights():
    total = weight(0) + weight(1) + weight(2)
    assert total == ZERO
    for i in range(3):
        assert weight(i) ** 3 == ONE
        assert euler_at(i) == CycScalar(-9)
        assert weight_pow(i, -1) == weight(i) ** 2


def test_weight_pow_cycles():
    for i in range(3):
        for k in range(-6, 7):
            assert weight_pow(i, k) == weight(i) ** (k % 3)


@given(scalars)
def test_conjugate_norm_is_rational(x):
    norm = x * x.conjugate()
    assert norm.is_rational()
    assert norm.as_rational() >= 0


@given(scalars)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == ONE
    assert ONE / x == x.inverse()


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x - y == -(y - x)


@given(rationals)
def test_rational_embedding(r):
    x = CycScalar(r)
    assert x.is_rational()
    assert x.as_rational() == r
    assert x == r


def test_as_rational_rejects_zeta_part():
    with pytest.raises(ConsistencyError):
        (ONE + ZETA).as_rational()


def test_rat_str():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-2)) == "-2/1"


def test_hash_consistency():
    assert hash(CycScalar(2)) == hash(CycScalar(Fraction(2)))
    d = {CycScalar(1, 1): "a"}
    assert d[CycScalar(1, 1)] == "a"


@given(scalars, scalars, st.integers(-50, 50))
def test_arithmetic_keeps_fraction_parts(x, y, k):
    results = [x + y, x - y, -x, x * y, x.conjugate(), x * k, k - x, k + x,
               CycScalar(x.a) * CycScalar(y.a)]
    for r in results:
        assert type(r.a) is Fraction and type(r.b) is Fraction
        assert r == CycScalar(r.a, r.b)


def test_constructor_rejects_non_rationals():
    with pytest.raises(TypeError):
        CycScalar(0.5)
    with pytest.raises(TypeError):
        CycScalar(1, "zeta")
