from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from kp2 import mgn
from kp2.mgn import hodge_psi_integral
from kp2.scalars import ZERO, CycScalar, weight, weight_pow

import golden
from golden import euler_at, hodge_second_route, plain_psi


def psi_integral(g, exps):
    """The cotangent integral: the Hodge integral with no lambda class."""
    return hodge_psi_integral(g, exps, ())


F = Fraction

# |B_2g| for g = 1..6, from the standard tables
BERNOULLI = {1: F(1, 6), 2: F(1, 30), 3: F(1, 42), 4: F(1, 30), 5: F(5, 66), 6: F(691, 2730)}


def test_base_values():
    assert psi_integral(0, (0, 0, 0)) == 1
    assert psi_integral(1, (1,)) == F(1, 24)
    assert psi_integral(2, (4,)) == F(1, 1152)


# classical values, checked against hand reductions via the string and
# dilaton equations; the engine never reads this table
CLASSICAL_PSI = {
    (0, (0, 0, 0, 1)): F(1),
    (0, (1, 1, 0, 0, 0)): F(2),
    (0, (2, 0, 0, 0, 0)): F(1),
    (1, (2, 0)): F(1, 24),
    (1, (1, 1)): F(1, 24),
    (2, (2, 3)): F(29, 5760),
    (2, (5, 0)): F(1, 1152),
    (2, (4, 1)): F(1, 384),
}

CLASSICAL_HODGE = {
    (1, (0,), (1,)): F(1, 24),
    (1, (1, 0), (1,)): F(1, 24),
    (2, (), (1, 1, 1)): F(1, 2880),
    (2, (), (1, 2)): F(1, 5760),
    (2, (1,), (1, 1, 1)): F(1, 1440),
    (2, (1,), (1, 2)): F(1, 2880),
}


def test_classical_psi_table():
    for (g, exps), value in CLASSICAL_PSI.items():
        assert psi_integral(g, exps) == value, (g, exps)


def test_classical_hodge_table():
    for (g, exps, lam), value in CLASSICAL_HODGE.items():
        assert hodge_psi_integral(g, exps, lam) == value, (g, exps, lam)


def test_genus_zero_closed_form():
    for exps in ((0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0, 0, 0)):
        n = len(exps)
        if sum(exps) != n - 3:
            continue
        expected = F(factorial(n - 3))
        for a in exps:
            expected /= factorial(a)
        assert psi_integral(0, exps) == expected


def test_dimension_mismatch_is_zero():
    assert psi_integral(1, (2,)) == 0
    assert psi_integral(2, (1, 1)) == 0
    assert hodge_psi_integral(2, (), (2, 2)) == 0  # degree 4 over dimension 3


def test_unstable_raises():
    with pytest.raises(ValueError):
        psi_integral(0, (0, 0))
    with pytest.raises(ValueError):
        psi_integral(1, ())
    with pytest.raises(ValueError):
        psi_integral(1, (-1, 2))


def test_genus_scope():
    # int over M_{g,1} of psi^(2g-2) lambda_g = (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!)
    for g in (1, 2, 3):
        b = BERNOULLI[g]
        expected = (2 ** (2 * g - 1) - 1) * b / (2 ** (2 * g - 1) * factorial(2 * g))
        assert hodge_psi_integral(g, (2 * g - 2,), (g,)) == expected, g
    assert hodge_psi_integral(2, (2,), (2,)) == F(7, 5760)
    assert hodge_psi_integral(3, (4,), (3,)) == F(31, 967680)
    assert psi_integral(3, (7,)) != 0  # pure cotangent powers have no cap


def test_genus_three_hodge_oracles():
    # Faber-Pandharipande, "Hodge integrals and Gromov-Witten theory"
    assert hodge_psi_integral(3, (), (2, 2, 2)) == F(1, 725760)
    assert hodge_psi_integral(3, (), (1, 2, 3)) == F(1, 1451520)
    assert hodge_psi_integral(3, (), (1,) * 6) == F(1, 90720)
    # lambda_g lambda_{g-1} lambda_{g-2} = |B_{2g-2} B_2g| / (2 (2g-2)! (2g-2) 2g), at g = 4
    assert hodge_psi_integral(4, (), (2, 3, 4)) == F(1, 42 * 30) / (2 * factorial(6) * 6 * 8)
    # lambda_3 squared vanishes, and lambda_4 is above the rank
    assert hodge_psi_integral(3, (), (3, 3)) == 0
    assert hodge_psi_integral(3, (1,), (4, 3)) == 0


# The genus <= 2 reduction that the general route replaced, kept as the
# reference: lambda_2 = lambda_1^2 / 2 in genus 2, then repeated removal of
# ch_1 = lambda_1 through its boundary formula.
_ref_memo: dict = {}


def ref_canonical_lambda(g, lam):
    if any(m > g for m in lam):
        return None
    alpha = lam.count(1)
    b = lam.count(2)
    factor = F(1)
    if b:
        if g < 2:
            return None
        alpha += 2 * b
        factor = F(1, 2**b)
    if g == 1 and alpha >= 2:
        return None
    if g == 2 and alpha >= 4:
        return None
    return alpha, factor


def ref_hodge(g, exps, alpha):
    n = len(exps)
    if g < 0 or 2 * g - 2 + n <= 0:
        return F(0)
    if sum(exps) + alpha != 3 * g - 3 + n:
        return F(0)
    if alpha == 0:
        return plain_psi(g, exps)
    if (g == 1 and alpha >= 2) or (g == 2 and alpha >= 4) or g == 0:
        return F(0)
    key = (g, tuple(sorted(exps)), alpha)
    if key in _ref_memo:
        return _ref_memo[key]
    exps = key[1]
    total = ref_hodge(g, exps + (2,), alpha - 1)
    for j, a in enumerate(exps):
        total -= ref_hodge(g, exps[:j] + exps[j + 1:] + (a + 1,), alpha - 1)
    boundary = ref_hodge(g - 1, exps + (0, 0), alpha - 1)
    idx = range(len(exps))
    for h in range(g + 1):
        for size in range(len(exps) + 1):
            for left in combinations(idx, size):
                side1 = tuple(exps[i] for i in left) + (0,)
                side2 = tuple(exps[i] for i in idx if i not in left) + (0,)
                if 2 * h - 2 + len(side1) <= 0 or 2 * (g - h) - 2 + len(side2) <= 0:
                    continue
                for t in range(alpha):
                    boundary += (comb(alpha - 1, t) * ref_hodge(h, side1, t)
                                 * ref_hodge(g - h, side2, alpha - 1 - t))
    total += boundary / 2
    _ref_memo[key] = total / 12
    return total / 12


def ref_hodge_psi_integral(g, exps, lam):
    reduced = ref_canonical_lambda(g, tuple(sorted(lam)))
    if reduced is None:
        return F(0)
    alpha, factor = reduced
    return factor * ref_hodge(g, tuple(exps), alpha)


def test_matches_genus_two_reference():
    cases = nonzero = 0
    for g in range(3):
        for n in range(5):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0:
                continue
            for size in range(1, dim + 1):
                for lam in combinations_with_replacement((1, 2, 3), size):
                    rem = dim - sum(lam)
                    if rem < 0:
                        continue
                    for exps in product(range(rem + 1), repeat=n):
                        if sum(exps) != rem:
                            continue
                        value = hodge_psi_integral(g, exps, lam)
                        assert value == ref_hodge_psi_integral(g, exps, lam), (g, exps, lam)
                        cases += 1
                        nonzero += value != 0
    assert (cases, nonzero) == (719, 392)


def test_empty_lambda_reduces_to_psi():
    assert hodge_psi_integral(2, (2, 3), ()) == psi_integral(2, (2, 3))
    assert hodge_psi_integral(1, (1,), ()) == psi_integral(1, (1,))


def test_vanishing_rules():
    # in genus 1 any lambda_1^2 dies; in genus 2 lambda_1^4 dies
    assert hodge_psi_integral(1, (0, 0), (1, 1)) == 0
    assert hodge_psi_integral(2, (), (1, 1, 1, 1)) == 0


def test_second_chern_character_rewrite():
    # lambda_2 = lambda_1^2 / 2 in genus 2, as integrals
    assert hodge_psi_integral(2, (1,), (1, 2)) == (
        F(1, 2) * hodge_psi_integral(2, (1,), (1, 1, 1)))
    assert hodge_psi_integral(2, (2,), (2,)) == (
        F(1, 2) * hodge_psi_integral(2, (2,), (1, 1)))


def test_independent_route_agrees():
    cases = [
        (1, (0,), (1,)),
        (1, (1,), (1,)),
        (2, (), (1, 1, 1)),
        (2, (), (1, 2)),
        (2, (1,), (1, 1, 1)),
        (2, (1,), (1, 2)),
        (2, (2, 0), (1, 1, 1)),
        (2, (1, 1), (1, 1, 1)),
        (2, (2, 0), (1, 2)),
        (2, (1, 1), (1, 2)),
    ]
    nonzero = 0
    for g, exps, lam in cases:
        a = hodge_psi_integral(g, exps, lam)
        b = hodge_second_route(g, exps, lam)
        assert a == b, (g, exps, lam)
        nonzero += a != 0
    assert nonzero >= 6


@st.composite
def stable_monomials(draw):
    g = draw(st.integers(min_value=0, max_value=3))
    min_n = max(1, 3 - 2 * g)
    n = draw(st.integers(min_value=min_n, max_value=5))
    # aim at the dimension of the space with one extra marking so the
    # string/dilaton identities are usually nontrivial
    target = 3 * g - 3 + n + 1
    exps = []
    remaining = max(target, 0)
    for _ in range(n - 1):
        a = draw(st.integers(min_value=0, max_value=min(remaining, 6)))
        exps.append(a)
        remaining -= a
    exps.append(draw(st.integers(min_value=0, max_value=min(remaining + 1, 7))))
    return g, tuple(exps)


# kp2.mgn applies the string and dilaton equations itself, so their right
# sides come from the plain recursion of golden.plain_psi, which applies
# neither.
@given(stable_monomials())
@settings(max_examples=120, deadline=None)
def test_string_equation(case):
    g, exps = case
    lhs = psi_integral(g, exps + (0,))
    rhs = F(0)
    for j, a in enumerate(exps):
        if a == 0:
            continue
        reduced = exps[:j] + (a - 1,) + exps[j + 1:]
        rhs += plain_psi(g, reduced)
    assert lhs == rhs == plain_psi(g, exps + (0,))


@given(stable_monomials())
@settings(max_examples=120, deadline=None)
def test_dilaton_equation(case):
    g, exps = case
    lhs = psi_integral(g, exps + (1,))
    assert lhs == (2 * g - 2 + len(exps)) * plain_psi(g, exps) == plain_psi(g, exps + (1,))


def test_plain_recursion_grid():
    # every cotangent integral with g <= 3 and n <= 5, string and dilaton
    # reductions included, against the plain recursion; all are positive
    cases = 0
    for g in range(4):
        for n in range(1, 6):
            if 2 * g - 2 + n <= 0:
                continue
            for exps in combinations_with_replacement(range(3 * g - 2 + n), n):
                if sum(exps) == 3 * g - 3 + n:
                    value = psi_integral(g, exps)
                    assert value > 0 and value == plain_psi(g, exps), (g, exps)
                    cases += 1
    assert cases == 140


def _multinomial(exps):
    out = factorial(sum(exps))
    for a in exps:
        out //= factorial(a)
    return out


@pytest.mark.parametrize("g", range(1, 7))
def test_witten_top_intersection(g):
    # <tau_{3g-2}>_g = 1 / (24^g g!)
    assert psi_integral(g, (3 * g - 2,)) == F(1, 24**g * factorial(g))


@pytest.mark.parametrize("g", range(1, 7))
def test_lambda_g_formula(g):
    # int over M_{g,n} of psi^a lambda_g = multinomial(2g - 3 + n; a) b_g, with
    # b_g = (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!)  (Faber-Pandharipande)
    b_g = (2 ** (2 * g - 1) - 1) * BERNOULLI[g] / (2 ** (2 * g - 1) * factorial(2 * g))
    for n in range(1, 4):
        for exps in product(range(2 * g - 2 + n), repeat=n):
            if sum(exps) == 2 * g - 3 + n:
                assert hodge_psi_integral(g, exps, (g,)) == _multinomial(exps) * b_g, (g, exps)


@pytest.mark.parametrize("g", range(1, 7))
def test_lambda_g_lambda_g_minus_one(g):
    # int over M_{g,1} of psi^(g-1) lambda_(g-1) lambda_g
    #   = |B_2g| / (2^(2g-1) (2g-1)!! 2g)  (Getzler-Pandharipande)
    lam = (g - 1, g) if g > 1 else (1,)
    dfact = prod(range(1, 2 * g, 2))
    assert hodge_psi_integral(g, (g - 1,), lam) == BERNOULLI[g] / (2 ** (2 * g - 1) * dfact * 2 * g)


def test_vertex_class_rank_zero():
    assert mgn.vertex_class(0) == {(): F(-1, 9)}
    assert golden.expand_vertex_class(0, 0) == {(): euler_at(0).inverse()}
    assert euler_at(0) == CycScalar(-9)


def test_vertex_class_genus_one():
    assert mgn.vertex_class(1) == {(): 1, (1,): F(-2, 3), (1, 1, 1): F(1, 9)}
    for i in range(3):
        expansion = golden.expand_vertex_class(i, 1)
        assert expansion[()] == CycScalar(1)
        expected = CycScalar(F(-2, 3)) * weight_pow(i, 2)
        assert expansion[(1,)] == expected
        assert expansion[(1, 1, 1)] == CycScalar(F(1, 9))


def test_vertex_class_genus_two():
    expansion = mgn.vertex_class(2)
    assert expansion[()] == -9
    assert (1, 1) not in expansion  # the -3w factor kills e_1(u)
    assert all(sum(key) <= 3 for key in expansion)


@pytest.mark.parametrize("h", range(6))
def test_rational_vertex_class_is_the_label_zero_class(h):
    # the power-sum recursion over Fractions against the product of the
    # three factors in Q(zeta)
    reference = {lam: c.as_rational() for lam, c in golden.expand_vertex_class(0, h).items()}
    assert mgn.vertex_class(h) == reference
    assert all(type(c) is F for c in mgn.vertex_class(h).values())


def _twist_mismatches(h_max: int) -> list:
    """The (i, h, lambda) at which golden's label-i vertex class is not
    w_i^(-|lambda|) times kp2.mgn's rational label-0 class, h <= h_max."""
    out = []
    for h in range(h_max + 1):
        base = mgn.vertex_class(h)
        for i in range(3):
            twisted = golden.expand_vertex_class(i, h)
            for lam in base.keys() | twisted.keys():
                if twisted.get(lam, ZERO) != weight_pow(i, -sum(lam)) * base.get(lam, 0):
                    out.append((i, h, lam))
    return out


def test_vertex_class_twists_from_label_zero():
    # The labelled route (kp2.labelled) builds every vertex at label 0 and
    # twists it, and kp2.localization.vertex_contribution twists its
    # label-0 value: with the class so related, each term of the vertex at
    # label i is zeta^(i sum(a - 2)) times its label-0 term, as its weight
    # w_i^(-rem) fills the vertex dimension.
    assert _twist_mismatches(5) == []
    assert len(mgn.vertex_class(4)) > 20


def test_vertex_class_twist_check_fails_on_a_perturbed_coefficient(monkeypatch):
    # controls: one label-1 coefficient of golden's class changed at genus
    # 3 is found, and so is one coefficient of the rational class, at every
    # label
    real = golden.expand_vertex_class

    def perturbed(i, h):
        out = real(i, h)
        if (i, h) == (1, 3):
            out = dict(out)
            out[(1,)] = out[(1,)] + 1
        return out

    monkeypatch.setattr(golden, "expand_vertex_class", perturbed)
    assert _twist_mismatches(4) == [(1, 3, (1,))]
    monkeypatch.undo()
    rational = mgn.vertex_class

    def shifted(h):
        out = rational(h)
        return {**out, (2,): out[(2,)] + 1} if h == 3 else out

    monkeypatch.setattr(mgn, "vertex_class", shifted)
    assert _twist_mismatches(4) == [(i, 3, (2,)) for i in range(3)]


def test_vertex_class_genus_three():
    for i in range(3):
        expansion = golden.expand_vertex_class(i, 3)
        assert expansion[()] == euler_at(i) ** 2
        assert max(sum(key) for key in expansion) == 6
        assert all(max(key, default=0) <= 3 for key in expansion)
        # lambda_3 comes from one factor, u'^3 u''^3 from the other two
        us = [weight(i) - weight(j) for j in range(3) if j != i] + [CycScalar(-3) * weight(i)]
        expected = -sum((us[(t + 1) % 3] * us[(t + 2) % 3]) ** 3 for t in range(3))
        assert expansion[(3,)] == expected * euler_at(i).inverse()
