from fractions import Fraction
from functools import reduce
from math import comb, gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from kp2.lring import RingElem, _pack, _unpack
from kp2.scalars import ZERO, ConsistencyError, CycScalar

coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
term_key = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-2, max_value=2),
)
ring_elems = st.dictionaries(term_key, coeff, max_size=4).map(
    lambda d: sum(
        (RingElem.monomial(c, l=k[0], x=k[1], e=k[2]) for k, c in d.items()),
        RingElem.zero(),
    )
)


@given(ring_elems, ring_elems, ring_elems)
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@given(ring_elems, ring_elems)
def test_derive_leibniz(f, g):
    assert (f * g).derive() == f.derive() * g + f * g.derive()


def test_generator_derivatives():
    L, X, c = RingElem.L(1), RingElem.X(), RingElem.c(1)
    assert L.derive() == (RingElem.L(4) - RingElem.L(1)).scale(Fraction(1, 3))
    assert c.derive() == -(c * X)
    # X' is pinned by its defining rule; checked against q-series elsewhere
    expected = (-(X * X) + (RingElem.L(3) - RingElem.one()) * X
                + (RingElem.L(3) - RingElem.one()).scale(Fraction(2, 9)))
    assert X.derive() == expected


def test_drule_against_series(mirror12):
    mirror12.verify_drule()


@given(f=ring_elems)
@settings(max_examples=40, deadline=None)
def test_eval_commutes_with_derive(f, mirror12):
    mirror = mirror12
    assert mirror.eval_q(f.derive()) == mirror.eval_q(f).d_logq()


@given(f=ring_elems)
@settings(max_examples=40, deadline=None)
def test_eval_at_q0_matches_series(f, mirror12):
    mirror = mirror12
    assert mirror.eval_q(f)[0] == f.eval_at(1, 0, 1)


def test_d_dT_shifts_c_degree():
    f = RingElem.L(2) + RingElem.X() * RingElem.c(-1)
    assert f.d_dT().c_degrees() == {1, 0}


def test_d_da2_on_x_powers():
    x2 = RingElem.X() * RingElem.X()
    assert x2.d_da2() == RingElem.monomial(Fraction(2, 3), l=3, x=1)
    assert RingElem.one().d_da2().is_zero()


# A2 = (3X + 1 - L^3/2)/L^3, the image of X under the inverse of to_a2_form
A2_OF_X = RingElem({(-3, 1, 0): 3, (-3, 0, 0): 1, (0, 0, 0): Fraction(-1, 2)})


@given(ring_elems)
def test_a2_form_roundtrip(f):
    assert f.to_a2_form().substitute_x(A2_OF_X) == f


def test_a2_form_shape():
    # X = (L^3 A2 - 1 + L^3/2) / 3 termwise, with A2 held in the X slot
    a2 = RingElem.X().to_a2_form()
    assert a2.x_degree() == 1
    assert a2.x_coefficient(1) == RingElem.L(3).scale(Fraction(1, 3))
    assert a2.x_coefficient(0) == (RingElem.L(3).scale(Fraction(1, 6))
                                   - RingElem.const(Fraction(1, 3)))


def test_json_roundtrip():
    f = RingElem.monomial(CycScalar(1, -2), l=-3, x=2, e=1) + RingElem.one()
    assert RingElem.from_json(f.to_json()) == f
    data = f.to_json()
    assert all(set(item) == {"L", "X", "c", "coeff"} for item in data)


def test_division_rules():
    f = RingElem.L(2) * RingElem.X()
    assert f / RingElem.L(2) == RingElem.X()
    assert f / Fraction(2) == f.scale(Fraction(1, 2))
    with pytest.raises(Exception):
        f / RingElem.X()  # X is not invertible in this ring


def test_degree_helpers():
    f = RingElem.monomial(1, l=-2, x=1, e=3) + RingElem.monomial(1, l=5, x=0, e=0)
    assert f.x_degree() == 1
    assert f.l_range() == (-2, 5)
    assert f.c_degrees() == {0, 3}
    assert f.x_coefficient(1) == RingElem.monomial(1, l=-2, e=3)
    assert RingElem.zero().x_degree() == -1


# Coefficients in Q(zeta) on few exponent triples, so that products collide
# and sums cancel.
cyc_coeff = st.builds(
    lambda n0, n1, d: CycScalar(Fraction(n0, d), Fraction(n1, d)),
    st.integers(-12, 12), st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]),
)
small_key = st.tuples(st.integers(-1, 1), st.integers(0, 1), st.integers(0, 1))
cyc_elems = st.dictionaries(small_key, cyc_coeff, max_size=5).map(RingElem)


def reference_product(f, g):
    """f * g term by term with CycScalar products and sums, zero terms dropped."""
    acc = {}
    for (l1, x1, e1), c1 in f.terms.items():
        for (l2, x2, e2), c2 in g.terms.items():
            key = (l1 + l2, x1 + x2, e1 + e2)
            acc[key] = acc.get(key, ZERO) + c1 * c2
    return {key: c for key, c in acc.items() if c}


@given(cyc_elems, cyc_elems)
def test_product_matches_term_by_term_reference(f, g):
    assert (f * g).terms == reference_product(f, g)
    assert (f * (-f)).terms == reference_product(f, -f)


def test_product_drops_cancelled_terms():
    f = RingElem.one() + RingElem.L(1) * CycScalar(0, Fraction(1, 2))
    g = RingElem.one() - RingElem.L(1) * CycScalar(0, Fraction(1, 2))
    # (1 + z L/2)(1 - z L/2) = 1 - z^2 L^2 / 4, the L terms cancel
    quarter = Fraction(1, 4)
    assert (f * g).terms == {(0, 0, 0): CycScalar(1), (2, 0, 0): CycScalar(quarter, quarter)}


@given(st.lists(cyc_elems, max_size=6), st.lists(st.integers(0, 5), max_size=3))
def test_sum_matches_left_fold(items, negated):
    items = items + [-items[k] for k in negated if k < len(items)]
    folded = reduce(add, items, RingElem.zero())
    total = RingElem.sum(items)
    assert total.terms == folded.terms
    assert RingElem.sum(iter(items)).terms == folded.terms
    assert all(c for c in total.terms.values())


@given(cyc_elems, cyc_elems)
def test_sum_and_add_drop_cancelled_terms(f, g):
    assert (f + (-f)).terms == {}
    assert RingElem.sum([f, g, -f]).terms == g.terms
    assert (f + g - f).terms == g.terms


def test_sum_of_nothing_is_zero():
    assert RingElem.sum([]).is_zero()


@given(cyc_elems, ring_elems, ring_elems)
def test_substitute_x_is_a_ring_map(image, f, g):
    def sub(h):
        return h.substitute_x(image)

    assert sub(f * g) == sub(f) * sub(g)
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(RingElem.zero()).is_zero()
    assert sub(RingElem.X()) == image
    assert sub(f.x_coefficient(0)) == f.x_coefficient(0)  # L and c are fixed


# -- the one-denominator representation against the per-term one ----------


class PerTermElem:
    """The per-term representation RingElem used to have: every coefficient a
    reduced CycScalar, every operation done term by term in CycScalar
    arithmetic.  Kept as the reference for the one-denominator form."""

    def __init__(self, terms):
        self.terms = {key: CycScalar(c) if not isinstance(c, CycScalar) else c
                      for key, c in terms.items() if c}

    @staticmethod
    def sum(items):
        return reduce(add, items, PerTermElem({}))

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return PerTermElem(out)

    def __neg__(self):
        return PerTermElem({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PerTermElem):
            return PerTermElem(reference_product(self, other))
        return PerTermElem({key: c * other for key, c in self.terms.items()})

    def conjugate(self):
        return PerTermElem({key: c.conjugate() for key, c in self.terms.items()})

    def derive(self):
        out = {}

        def put(key, coeff):
            out[key] = out.get(key, ZERO) + coeff

        for (l, x, e), c in self.terms.items():
            if l:
                s = c * Fraction(l, 3)
                put((l + 3, x, e), s)
                put((l, x, e), -s)
            if x:
                s = c * x
                put((l, x + 1, e), -s)
                put((l + 3, x, e), s)
                put((l, x, e), -s)
                t = c * (x * Fraction(2, 9))
                put((l + 3, x - 1, e), t)
                put((l, x - 1, e), -t)
            if e:
                put((l, x + 1, e), -c * e)
        return PerTermElem(out)

    def to_a2_form(self):
        out = {}
        for (l, x, e), c in self.terms.items():
            for t in range(x + 1):
                for s in range(x - t + 1):
                    coeff = (c * Fraction(1, 3) ** x * (comb(x, t) * comb(x - t, s))
                             * Fraction(1, 2) ** s)
                    if (x - t - s) % 2:
                        coeff = -coeff
                    key = (l + 3 * t + 3 * s, t, e)
                    out[key] = out.get(key, ZERO) + coeff
        return {key: c for key, c in out.items() if c}

    def eval_at(self, lv, xv, cv):
        total = ZERO
        for (l, x, e), c in self.terms.items():
            total = total + c * lv**l * xv**x * cv**e
        return total


def assert_canonical(f):
    """den > 0, no stored zero in either part, gcd(den, all numerators) == 1;
    zero is den 1 with no terms."""
    assert isinstance(f.den, int) and f.den > 0
    assert all(f.n0.values()) and all(f.n1.values())
    assert gcd(f.den, *f.n0.values(), *f.n1.values()) == 1
    if not f.n0 and not f.n1:
        assert f.den == 1


cyc_terms = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(-1, 1)),
    cyc_coeff, max_size=5,
)
eval_points = st.sampled_from([CycScalar(2), CycScalar(0, 1), CycScalar(Fraction(-1, 3), 2)])


@given(cyc_terms, cyc_terms, cyc_coeff, st.lists(cyc_terms, max_size=4))
def test_matches_per_term_reference(a, b, s, more):
    f, g, rf, rg = RingElem(a), RingElem(b), PerTermElem(a), PerTermElem(b)
    items = [RingElem(t) for t in more] + [f, -g, g]
    ref_items = [PerTermElem(t) for t in more] + [rf, -rg, rg]
    cases = [
        (f, rf),
        (f * g, rf * rg),
        (f * f.conjugate(), rf * rf.conjugate()),
        (f + g, rf + rg),
        (f - g, rf - rg),
        (f - f, rf - rf),
        (-f, -rf),
        (f * s, rf * s),
        (f * Fraction(3, 4), rf * CycScalar(Fraction(3, 4))),
        (f.conjugate(), rf.conjugate()),
        (f.derive(), rf.derive()),
        (RingElem.sum(items), PerTermElem.sum(ref_items)),
    ]
    for new, ref in cases:
        assert_canonical(new)
        assert new.terms == ref.terms
    assert f.to_a2_form().terms == rf.to_a2_form()


@given(cyc_terms, eval_points, eval_points, eval_points)
def test_eval_at_matches_per_term_reference(a, lv, xv, cv):
    assert RingElem(a).eval_at(lv, xv, cv) == PerTermElem(a).eval_at(lv, xv, cv)


@given(cyc_terms)
def test_other_results_are_canonical(a):
    f = RingElem(a)
    for result in (f.d_da2(), f.x_coefficient(1), f / RingElem.monomial(CycScalar(2, 1), l=1),
                   f / CycScalar(0, 3), RingElem.from_json(f.to_json()), f * f):
        assert_canonical(result)


def test_routes_with_different_denominators_compare_equal():
    f = RingElem({(0, 0, 0): Fraction(1, 6), (1, 0, 0): CycScalar(0, Fraction(1, 4))})
    g = RingElem({(0, 1, 0): Fraction(3, 10), (1, 0, 0): 5})
    h = RingElem({(0, 0, 1): CycScalar(Fraction(2, 9), Fraction(1, 9)), (-1, 0, 0): 7})
    left, right = f * g, g * h
    assert left.den != right.den
    assert (f * g) * h == f * (g * h)
    assert_canonical((f * g) * h)
    # sums reduced over different lcms
    assert RingElem.sum([f, g, h]) == (h + g) + f == f + (g + h)
    # the same value built from scaled numerators
    half = RingElem({(2, 0, 0): CycScalar(Fraction(1, 2), Fraction(1, 2))})
    twice = RingElem({(2, 0, 0): CycScalar(Fraction(3, 2), Fraction(3, 2))}) * Fraction(1, 3)
    assert half == twice and half.den == 2
    assert (half.n0, half.n1) == ({_pack(2, 0, 0): 1}, {_pack(2, 0, 0): 1})
    assert f - f == RingElem.zero() and (f - f).den == 1


def test_parts_are_stored_apart():
    # A rational element has no zeta part, and products of rational
    # elements stay so; a zeta part that cancels leaves no stored zero, and
    # equality compares den and both parts.
    f = RingElem({(1, 0, 0): Fraction(1, 2), (0, 1, -1): 3})
    z = RingElem({(1, 0, 0): CycScalar(0, Fraction(1, 2))})
    assert f.n1 == {} and (f * f).n1 == {} and f.conjugate() == f
    assert (f + z).n0 == f.n0 and set((f + z).n1) == {_pack(1, 0, 0)}
    assert (f + z - z).n1 == {} and f + z - z == f
    assert_canonical(f + z - z)
    assert f + z != f and (f + z).den == f.den and (f + z).n0 == f.n0
    assert (z * z.conjugate()).n1 == {}  # the norm is rational
    assert_canonical(z * z.conjugate())
    assert RingElem.zero().den == 1 and not RingElem.zero().n0 and not RingElem.zero().n1


def test_keys_are_injective_on_the_exponent_box():
    box = [(l, x, e) for l in (-256, -1, 0, 1, 255) for x in (0, 1, 511) for e in (-256, -1, 0, 255)]
    keys = [_pack(*t) for t in box]
    assert len(set(keys)) == len(box)
    assert [_unpack(k) for k in keys] == box
    assert sorted(keys) == [_pack(*t) for t in sorted(box)]  # keys sort as exponents


@pytest.mark.parametrize("make", [
    lambda: RingElem.L(256), lambda: RingElem.L(-257), lambda: RingElem.c(256),
    lambda: RingElem.c(-257), lambda: RingElem.monomial(1, x=512),
    lambda: RingElem.L(200) * RingElem.L(100), lambda: RingElem.L(-200) * RingElem.L(-100),
    lambda: RingElem.c(255) * RingElem.c(1), lambda: RingElem.c(-256) * RingElem.c(-1),
    lambda: RingElem.monomial(1, x=300) * RingElem.monomial(1, x=300),
    lambda: RingElem.monomial(CycScalar(0, 1), l=255) * RingElem.L(1),
    lambda: RingElem.L(254).derive(), lambda: RingElem.c(-256) / RingElem.c(1),
    lambda: RingElem.monomial(1, l=254, x=1).d_da2(),
], ids=["L256", "L-257", "c256", "c-257", "X512", "L300", "L-300", "c256-mul", "c-257-mul",
        "X600", "zeta-L256", "derive", "divide", "d_da2"])
def test_out_of_range_exponent_raises(make):
    # an exponent outside the key box would alias another monomial's key
    with pytest.raises(ValueError, match="range"):
        make()


def test_exponents_at_the_edge_of_the_box():
    assert RingElem.L(255) * RingElem.L(-256) == RingElem.L(-1)
    assert RingElem.c(255) * RingElem.c(-256) == RingElem.c(-1)
    top = RingElem.monomial(1, l=255, x=511, e=255)
    assert top.terms == {(255, 511, 255): CycScalar(1)}
    assert top * RingElem.monomial(1, l=-256, e=-256) == RingElem.monomial(1, x=511, e=-1, l=-1)


def test_terms_is_a_read_only_view():
    f = RingElem({(0, 0, 0): Fraction(1, 6), (1, 2, -1): CycScalar(Fraction(-1, 4), 1)})
    terms = f.terms
    plain = {(0, 0, 0): CycScalar(Fraction(1, 6)), (1, 2, -1): CycScalar(Fraction(-1, 4), 1)}
    assert len(terms) == 2
    assert terms == plain and plain == terms
    assert terms != {(0, 0, 0): CycScalar(Fraction(1, 6))}
    assert terms[(1, 2, -1)] == CycScalar(Fraction(-1, 4), 1)
    assert (1, 2, -1) in terms and (0, 0, 1) not in terms
    assert set(terms) == set(plain)
    assert dict(terms.items()) == plain
    assert sorted(terms.values(), key=repr) == sorted(plain.values(), key=repr)
    with pytest.raises(TypeError):
        terms[(0, 0, 0)] = CycScalar(1)
    with pytest.raises(TypeError):
        del terms[(0, 0, 0)]
    assert RingElem(terms) == f
    assert RingElem.zero().terms == {}
