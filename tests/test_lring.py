from fractions import Fraction
from functools import reduce
from math import comb, gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from kp2.labelled import CycElem
from kp2.lring import RingElem, _pack, _unpack
from kp2.scalars import ZERO, ZETA, ConsistencyError, CycScalar

from golden import cyc

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
    f = RingElem.monomial(CycScalar(Fraction(-2, 3)), l=-3, x=2, e=1) + RingElem.one()
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


# Rational coefficients on few exponent triples, so that products collide
# and sums cancel; the Q(zeta) ones are for the CycElem pairs of kp2.labelled.
rat_coeff = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]))
cyc_coeff = st.builds(
    lambda n0, n1, d: CycScalar(Fraction(n0, d), Fraction(n1, d)),
    st.integers(-12, 12), st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]),
)
small_key = st.tuples(st.integers(-1, 1), st.integers(0, 1), st.integers(0, 1))
cyc_elems = st.dictionaries(small_key, rat_coeff, max_size=5).map(RingElem)


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
    f = RingElem.one() + RingElem.L(1) * Fraction(1, 2)
    g = RingElem.one() - RingElem.L(1) * Fraction(1, 2)
    # (1 + L/2)(1 - L/2) = 1 - L^2 / 4, the L terms cancel
    assert (f * g).terms == {(0, 0, 0): CycScalar(1), (2, 0, 0): CycScalar(Fraction(-1, 4))}
    # and with zeta on the pairs: (1 + z L/2)(1 - z L/2) = 1 - z^2 L^2 / 4
    f = CycElem(RingElem.one(), RingElem.L(1) * Fraction(1, 2))
    g = CycElem(RingElem.one(), RingElem.L(1) * Fraction(-1, 2))
    quarter = Fraction(1, 4)
    assert pair_terms(f * g) == {(0, 0, 0): CycScalar(1), (2, 0, 0): CycScalar(quarter, quarter)}


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
    reduced CycScalar in Q(zeta), every operation done term by term in
    CycScalar arithmetic.  Kept as the reference for the one-denominator
    form of RingElem on rational terms and for the CycElem pairs."""

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
    """den > 0, no stored zero, gcd(den, all numerators) == 1; zero is den 1
    with no terms."""
    assert isinstance(f.den, int) and f.den > 0
    assert all(f.num.values())
    assert gcd(f.den, *f.num.values()) == 1
    if not f.num:
        assert f.den == 1


def assert_pair_canonical(f):
    """Both parts of a CycElem are canonical rational RingElems."""
    assert isinstance(f, CycElem)
    assert_canonical(f.a)
    assert_canonical(f.b)


terms_key = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(-1, 1))
rat_terms = st.dictionaries(terms_key, rat_coeff, max_size=5)
cyc_terms = st.dictionaries(terms_key, cyc_coeff, max_size=5)
eval_points = st.sampled_from([CycScalar(2), CycScalar(0, 1), CycScalar(Fraction(-1, 3), 2)])


def pair_terms(f: CycElem) -> dict:
    """The Q(zeta) coefficients of a pair, keyed as RingElem.terms."""
    a, b = f.a.terms, f.b.terms
    return {k: CycScalar(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()}


def pair(terms) -> CycElem:
    """The CycElem with the given Q(zeta) coefficients."""
    return CycElem(RingElem({k: c.a for k, c in terms.items()}),
                   RingElem({k: c.b for k, c in terms.items()}))


@given(rat_terms, rat_terms, rat_coeff, st.lists(rat_terms, max_size=4))
def test_matches_per_term_reference(a, b, s, more):
    f, g, rf, rg = RingElem(a), RingElem(b), PerTermElem(a), PerTermElem(b)
    items = [RingElem(t) for t in more] + [f, -g, g]
    ref_items = [PerTermElem(t) for t in more] + [rf, -rg, rg]
    cases = [
        (f, rf),
        (f * g, rf * rg),
        (f + g, rf + rg),
        (f - g, rf - rg),
        (f - f, rf - rf),
        (-f, -rf),
        (f * s, rf * CycScalar(s)),
        (f * CycScalar(s), rf * CycScalar(s)),
        (f.derive(), rf.derive()),
        (RingElem.sum(items), PerTermElem.sum(ref_items)),
    ]
    for new, ref in cases:
        assert_canonical(new)
        assert new.terms == ref.terms
    assert f.to_a2_form().terms == rf.to_a2_form()


@given(cyc_terms, cyc_terms, cyc_coeff, st.lists(cyc_terms, max_size=4), rat_terms)
def test_pairs_match_per_term_reference(a, b, s, more, r):
    # CycElem, a + b zeta over rational RingElems, against Q(zeta)
    # arithmetic term by term: products (with pairs, RingElems and scalars),
    # sums, conjugates and twists, every result canonical in both parts
    f, g, rf, rg = pair(a), pair(b), PerTermElem(a), PerTermElem(b)
    h, rh = RingElem(r), PerTermElem(r)
    items = [pair(t) for t in more] + [f, -g, g, CycElem(h)]
    ref_items = [PerTermElem(t) for t in more] + [rf, -rg, rg, rh]
    cases = [
        (f, rf),
        (f * g, rf * rg),
        (f * f.conjugate(), rf * rf.conjugate()),
        (f * h, rf * rh),
        (h * f, rh * rf),
        (f + g, rf + rg),
        (f + h, rf + rh),
        (h + f, rh + rf),
        (f - g, rf - rg),
        (f - f, rf - rf),
        (-f, -rf),
        (f * cyc(s), rf * s),
        (f * Fraction(3, 4), rf * CycScalar(Fraction(3, 4))),
        (f.conjugate(), rf.conjugate()),
        (f.twist(1), rf * ZETA),
        (f.twist(-4), rf * (ZETA * ZETA)),
        (CycElem.sum(items), PerTermElem.sum(ref_items)),
    ]
    for new, ref in cases:
        assert_pair_canonical(new)
        assert pair_terms(new) == ref.terms
    assert (f == g) == (rf.terms == rg.terms)
    assert (f == h) == (rf.terms == rh.terms)
    assert (f * f.conjugate()).b.is_zero()  # the norm is rational
    rational = pair({k: CycScalar(c) for k, c in r.items()})
    assert rational == h and h == rational


def test_pairs_compare_with_rings_and_print_their_terms():
    z = CycElem(RingElem.zero(), RingElem.L(1) * Fraction(1, 2))
    f = RingElem({(1, 0, 0): Fraction(1, 2), (0, 1, -1): 3})
    assert f + z != f and f + z - z == f and f == f + z - z
    assert (f + z).a == f and (f + z).b == RingElem.L(1) * Fraction(1, 2)
    assert not CycElem(RingElem.zero()) and CycElem.sum([]).is_zero() and z
    assert (f + z).to_json() == [
        {"L": 0, "X": 1, "c": -1, "coeff": {"a": "3/1", "b": "0/1"}},
        {"L": 1, "X": 0, "c": 0, "coeff": {"a": "1/2", "b": "1/2"}},
    ]
    assert CycElem(f).to_json() == f.to_json()


def test_pairs_take_no_cyc_scalar():
    # A Q(zeta) constant enters pair arithmetic as a pair (golden.cyc), whose
    # product goes through CycElem.dot; a CycScalar operand is refused either way.
    one = CycElem(RingElem.one())
    for op in (lambda: one * ZETA, lambda: one + ZETA, lambda: ZETA * one, lambda: ZETA + one,
               lambda: one - ZETA, lambda: CycElem.dot([(one, ZETA)])):
        with pytest.raises(TypeError):
            op()
    assert one * cyc(ZETA) == one.twist(1) and one + 1 == CycElem(RingElem.const(2))


@given(rat_terms, eval_points, eval_points, eval_points)
def test_eval_at_matches_per_term_reference(a, lv, xv, cv):
    assert RingElem(a).eval_at(lv, xv, cv) == PerTermElem(a).eval_at(lv, xv, cv)


@given(rat_terms)
def test_other_results_are_canonical(a):
    f = RingElem(a)
    for result in (f.d_da2(), f.x_coefficient(1), f / RingElem.monomial(CycScalar(2), l=1),
                   f / CycScalar(Fraction(-3, 4)), RingElem.from_json(f.to_json()), f * f):
        assert_canonical(result)


@given(st.lists(st.tuples(rat_terms, st.none() | rat_terms), max_size=5),
       st.lists(st.integers(0, 4), max_size=3))
def test_dot_is_the_sum_of_its_products(raw, negated):
    # pairs over mixed denominators, y None for the unit one(), some pairs
    # cancelled by their negation; an empty list is zero over den 1
    pairs = [(RingElem(a), RingElem.one() if b is None else RingElem(b)) for a, b in raw]
    pairs += [(-pairs[k][0], pairs[k][1]) for k in negated if k < len(pairs)]
    total = RingElem.dot(pairs)
    assert_canonical(total)
    assert total == RingElem.sum([x * y for x, y in pairs]) == RingElem.dot(iter(pairs))
    assert total.terms == PerTermElem.sum([PerTermElem(dict(x.terms)) * PerTermElem(dict(y.terms))
                                           for x, y in pairs]).terms
    cancelled = RingElem.dot(pairs + [(-x, y) for x, y in pairs])
    assert cancelled.is_zero() and cancelled.den == 1


def test_dot_refuses_what_the_ring_cannot_hold():
    f = RingElem({(0, 0, 0): Fraction(1, 6), (1, 1, 0): Fraction(-3, 4)})
    # an exponent leaving the key box raises, also when its term cancels
    for pairs in ([(f, f), (RingElem.L(200), RingElem.L(100))],
                  [(RingElem.c(255), RingElem.c(1)), (RingElem.c(-255), RingElem.c(1))],
                  [(RingElem.L(255), RingElem.one()), (RingElem.L(1), RingElem.L(255))]):
        with pytest.raises(ValueError, match="range"):
            RingElem.dot(pairs)
    # a scalar with a zeta part never becomes a factor of dot: the product
    # and the constant that would carry it refuse it first
    # (test_zeta_parts_never_reach_the_ring)


def test_routes_with_different_denominators_compare_equal():
    f = RingElem({(0, 0, 0): Fraction(1, 6), (1, 0, 0): Fraction(1, 4)})
    g = RingElem({(0, 1, 0): Fraction(3, 10), (1, 0, 0): 5})
    h = RingElem({(0, 0, 1): Fraction(2, 9), (-1, 0, 0): 7})
    left, right = f * g, g * h
    assert left.den != right.den
    assert (f * g) * h == f * (g * h)
    assert_canonical((f * g) * h)
    # sums reduced over different lcms
    assert RingElem.sum([f, g, h]) == (h + g) + f == f + (g + h)
    # the same value built from scaled numerators
    half = RingElem({(2, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-1, 2)})
    twice = RingElem({(2, 0, 0): Fraction(3, 2), (0, 0, 0): Fraction(-3, 2)}) * Fraction(1, 3)
    assert half == twice and half.den == 2
    assert half.num == {_pack(2, 0, 0): 1, _pack(0, 0, 0): -1}
    assert f - f == RingElem.zero() and (f - f).den == 1


def test_zeta_parts_never_reach_the_ring():
    # the ring is rational: a coefficient or scalar with a zeta part is an
    # internal fault (ConsistencyError, exit 3), not a usage error
    # (ValueError, exit 2); rational CycScalars pass
    f = RingElem.L(1) + RingElem.one()
    for make in (lambda: RingElem({(1, 0, 0): ZETA}), lambda: RingElem.monomial(ZETA, l=1),
                 lambda: RingElem.const(CycScalar(1, 1)), lambda: f * ZETA, lambda: ZETA * f,
                 lambda: f / ZETA, lambda: f + ZETA, lambda: f.eval_at(1, 0) * f * ZETA,
                 lambda: RingElem.from_json([{"L": 0, "X": 0, "c": 0,
                                              "coeff": {"a": "0/1", "b": "1/3"}}])):
        with pytest.raises(ConsistencyError, match="not rational") as info:
            make()
        assert not isinstance(info.value, ValueError)
    assert f * CycScalar(Fraction(1, 2)) == f * Fraction(1, 2) == RingElem.const(CycScalar(3)) * f / 6
    assert RingElem.zero().den == 1 and not RingElem.zero().num


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
    lambda: CycElem(RingElem.zero(), RingElem.L(255)) * RingElem.L(1),
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


def test_terms_is_a_fresh_dict_of_fractions():
    f = RingElem({(0, 0, 0): Fraction(1, 6), (1, 2, -1): CycScalar(Fraction(-1, 4))})
    terms = f.terms
    assert terms == {(0, 0, 0): Fraction(1, 6), (1, 2, -1): Fraction(-1, 4)}
    assert all(type(c) is Fraction for c in terms.values())
    # the dict is the caller's: changing it leaves the element as it was
    terms[(0, 0, 0)] = Fraction(5)
    del terms[(1, 2, -1)]
    terms[(3, 0, 0)] = Fraction(1, 2)
    assert f == RingElem({(0, 0, 0): Fraction(1, 6), (1, 2, -1): Fraction(-1, 4)})
    assert f.terms is not f.terms and RingElem(f.terms) == f
    assert RingElem.zero().terms == {}


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2"], ids=["half", "one", "str"])
def test_floats_never_enter_the_ring(bad):
    # the ring is exact: a float (or a string) is refused as a coefficient
    # and as a scalar on either side of *, + and /, never rounded or dropped
    f = RingElem.L(1) + RingElem.one()
    for make in (lambda: RingElem({(1, 0, 0): bad}),
                 lambda: RingElem({(0, 0, 0): 1, (1, 0, 0): bad}), lambda: RingElem.const(bad), lambda: RingElem.monomial(bad, l=1),
                 lambda: f * bad, lambda: bad * f, lambda: f + bad, lambda: bad + f,
                 lambda: f - bad, lambda: f / bad, lambda: f.scale(bad)):
        with pytest.raises(TypeError):
            make()
    assert f != bad


def test_eval_at_stays_exact():
    # an int point is made a Fraction first: 1 ** -3 is the float 1.0, and
    # 1.0 == Fraction(1), so only the type tells them apart
    f = RingElem.L(-3)
    assert type(f.eval_at(1, 0)) is Fraction and f.eval_at(1, 0) == 1
    assert type(f.eval_at(2, 0)) is Fraction and f.eval_at(2, 0) == Fraction(1, 8)
    assert f.eval_at(Fraction(1, 2), 0) == 8
    g = RingElem({(-1, 1, -2): Fraction(3, 4), (0, 0, 0): 1})
    assert g.eval_at(2, 3, 1) == Fraction(17, 8) and type(g.eval_at(2, 3, 1)) is Fraction
    assert type(RingElem.zero().eval_at(1, 0)) is Fraction
    # a point in Q(zeta) gives a value in Q(zeta)
    assert type(RingElem.L(1).eval_at(ZETA, 0)) is CycScalar
    assert RingElem.L(1).eval_at(ZETA, 0) == ZETA
    assert RingElem.L(-1).eval_at(ZETA, 0) == ZETA * ZETA
