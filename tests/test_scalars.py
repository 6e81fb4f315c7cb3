from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from kp2.scalars import (
    ONE,
    ZERO,
    ZETA,
    ConsistencyError,
    CycScalar,
    rat_str,
    weight,
    weight_pow,
)

from golden import euler_at

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


# Reference arithmetic: Q(zeta) as pairs (a, b) of Fractions for a + b*zeta,
# computed with zeta^2 = -1 - zeta, independently of CycScalar's integer form.

def ref_mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)


def ref_inverse(x):
    a, b = x
    norm = a * a - a * b + b * b
    return ((a - b) / norm, -b / norm)


def ref_pow(x, n):
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def pair(x):
    return (x.a, x.b)


pairs = st.tuples(rationals, rationals)


@given(pairs, pairs, st.integers(-5, 5))
def test_arithmetic_matches_fraction_reference(p, q, n):
    x, y = CycScalar(*p), CycScalar(*q)
    (a1, b1), (a2, b2) = p, q
    assert pair(x) == p
    assert pair(x + y) == (a1 + a2, b1 + b2)
    assert pair(x - y) == (a1 - a2, b1 - b2)
    assert pair(-x) == (-a1, -b1)
    assert pair(x * y) == ref_mul(p, q)
    assert pair(x.conjugate()) == (a1 - b1, -b1)
    assert (x == y) is (p == q)
    if x:
        assert pair(x.inverse()) == ref_inverse(p)
        assert pair(x ** n) == ref_pow(p, n)
    elif n >= 0:
        assert pair(x ** n) == ref_pow(p, n)


@given(scalars, scalars, st.integers(-30, 30), rationals)
def test_canonical_form(x, y, k, r):
    results = [x, y, x + y, x - y, x - x, -x, x * y, x * 0, x.conjugate(), x * k,
               k - x, x + r, r * x, CycScalar(r), x ** 2]
    if x:
        results += [x.inverse(), y / x]
    for v in results:
        assert type(v.n0) is int and type(v.n1) is int and type(v.d) is int
        assert v.d > 0
        assert gcd(v.n0, v.n1, v.d) == 1
        if v.is_zero():
            assert (v.n0, v.n1, v.d) == (0, 0, 1)


small_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.builds(CycScalar, st.fractions(min_value=-2, max_value=2, max_denominator=3),
              st.sampled_from([0, 0, 1, Fraction(1, 2)])),
)


@given(small_values, small_values)
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)


@given(rationals)
def test_rational_hash_matches_int_and_fraction(r):
    x = CycScalar(r) + ZETA - ZETA
    assert x == r and hash(x) == hash(r)
    if r.denominator == 1:
        assert x == int(r) and hash(x) == hash(int(r))
    assert {CycScalar(r): 1}.get(r) == 1
    assert {r: 1}.get(x) == 1


def test_hash_lookup_across_types():
    assert {CycScalar(3): 1}.get(3) == 1
    assert {Fraction(1, 2): 1}.get(CycScalar(Fraction(1, 2))) == 1
    assert {CycScalar(1, 1): 1}.get(CycScalar(Fraction(2, 2), 1)) == 1
