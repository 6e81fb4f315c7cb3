"""Exact intersection numbers on moduli of stable curves.

Cotangent integrals come from the DVV recursion on the largest exponent,
Hodge integrals from Faber's algorithm ("Algorithms for computing
intersection numbers on moduli spaces of curves") in every genus.
Newton's identities write a lambda-monomial in ch_1, ch_3, ... of the
Hodge bundle E (ch_{2l}(E) = 0 for l >= 1), and Mumford's formula

    ch_{2l-1}(E) = B_{2l}/(2l)! [kappa_{2l-1} - sum_i psi_i^{2l-1}
                   + 1/2 iota_*(sum_{a+b=2l-2} (-1)^a psi^a psi'^b)]

removes one ch factor at a time: kappa becomes an extra marking with
psi^{2l}, and on a boundary divisor the other ch factors restrict to
genus g - 1 or split over the two sides.  ch_k(E) = 0 for k > 2g - 1, and
a ch-monomial of degree above 3g - 3 (1 in genus 1) vanishes, as E is
pulled back from a space of that dimension.

Before either recursion step, the string equation removes a psi^0
marking and the dilaton equation a psi^1 marking (a factor 2g - 3 + n)
whenever (g, n - 1) is stable.  Both hold with ch classes, as E is pulled
back along forgetful maps, so the recursions see only exponents >= 2.

The graph sums need the vertex class only at label 0, where the weights
1 - zeta, 1 - zeta^2 have sum and product 3: it is rational, from their
power sums s_m = 3 s_{m-1} - 3 s_{m-2}, s_0 = 2, s_1 = 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial

__all__ = ["hodge_psi_integral", "vertex_class"]

_bernoulli = [Fraction(1)]  # B_0, B_1, ... with B_1 = -1/2


def _dfact(n: int) -> int:
    """(n)!! for odd n >= -1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@cache
def _splits(items: tuple[int, ...]) -> list:
    """(left, right, weight) over the distinct sub-multisets of items.

    Both sides come out sorted; weight counts the index subsets of items
    that give the same pair of multisets.
    """
    groups: list = [((), (), 1)]
    for value in sorted(set(items)):
        m = items.count(value)
        groups = [
            (left + (value,) * t, right + (value,) * (m - t), w * comb(m, t))
            for left, right, w in groups
            for t in range(m + 1)
        ]
    return groups


def _dvv(g: int, exps: tuple[int, ...]) -> Fraction:
    """_step without ch classes: recursion on the largest exponent."""
    if g == 0:  # exps == (0, 0, 0)
        return Fraction(1)
    if g == 1 and exps == (1,):
        return Fraction(1, 24)
    k = exps[-1] - 1
    rest = exps[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        others = rest[:j] + rest[j + 1 :]
        total += Fraction(_dfact(2 * (k + d) + 1), _dfact(2 * d - 1)) * _ch(
            g, others + (k + d,)
        )
    boundary = Fraction(0)
    for a in range(k):
        b = k - 1 - a
        w = _dfact(2 * a + 1) * _dfact(2 * b + 1)
        boundary += w * _ch(g - 1, rest + (a, b))
        for g1 in range(g + 1):
            for left, right, m in _splits(rest):
                boundary += m * w * _ch(g1, left + (a,)) * _ch(g - g1, right + (b,))
    total += boundary / 2
    return total / _dfact(2 * k + 3)


def _forget(g: int, exps: tuple[int, ...], ks: tuple[int, ...] = ()):
    """The string or dilaton step on the first marking of exps (sorted) if it
    has psi^0 or psi^1 and (g, n - 1) is stable, else None."""
    n = len(exps)
    if not exps or exps[0] > 1 or 2 * g - 3 + n <= 0:
        return None
    rest = exps[1:]
    if exps[0]:
        return (2 * g - 3 + n) * _ch(g, rest, ks)
    total = Fraction(0)
    for j, a in enumerate(rest):
        if a and (j == 0 or rest[j - 1] < a):  # once per distinct exponent
            total += rest.count(a) * _ch(g, rest[:j] + (a - 1,) + rest[j + 1:], ks)
    return total


def _mumford_coeff(k: int) -> Fraction:
    """B_{k+1}/(k+1)!, the coefficient of ch_k in Mumford's formula."""
    while len(_bernoulli) <= k + 1:
        m = len(_bernoulli)
        _bernoulli.append(-sum(comb(m + 1, j) * _bernoulli[j] for j in range(m)) / (m + 1))
    return _bernoulli[k + 1] / factorial(k + 1)


def _ch(g: int, exps: tuple[int, ...], ks: tuple[int, ...] = ()) -> Fraction:
    """Total integral of a cotangent monomial times ch_{k_1}...ch_{k_r}(E),
    0 outside the stable range; ks is sorted and holds odd indices."""
    n = len(exps)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(exps) + sum(ks) != 3 * g - 3 + n:
        return Fraction(0)
    if ks and (ks[-1] > 2 * g - 1 or sum(ks) > max(3 * g - 3, 1)):
        return Fraction(0)
    return _step(g, tuple(sorted(exps)), ks)


@cache
def _step(g: int, exps: tuple[int, ...], ks: tuple[int, ...]) -> Fraction:
    """_ch where no vanishing applies, exps sorted: the string or dilaton
    step if one applies, else DVV without ch classes, else the largest ch_k
    is removed by Mumford's formula; the other factors restrict to each
    boundary divisor."""
    reduced = _forget(g, exps, ks)
    if reduced is not None:
        return reduced
    if not ks:
        return _dvv(g, exps)
    k, rest = ks[-1], ks[:-1]
    # kappa_k term, then the cotangent terms
    total = _ch(g, exps + (k + 1,), rest)
    for j, a in enumerate(exps):
        total -= _ch(g, exps[:j] + exps[j + 1 :] + (a + k,), rest)
    # boundary: psi^a psi'^b with a + b = k - 1 at the two branches of the
    # node; the sum over the separating splits is ordered
    marking_splits, ch_splits = _splits(exps), _splits(rest)
    boundary = Fraction(0)
    for a in range(k):
        b = k - 1 - a
        part = _ch(g - 1, exps + (a, b), rest)
        for h in range(g + 1):
            for left, right, w1 in marking_splits:
                side1, side2 = left + (a,), right + (b,)
                if 2 * h - 2 + len(side1) <= 0 or 2 * (g - h) - 2 + len(side2) <= 0:
                    continue
                for ks1, ks2, w2 in ch_splits:
                    value = _ch(h, side1, ks1)
                    if value:
                        part += w1 * w2 * value * _ch(g - h, side2, ks2)
        boundary += -part if a % 2 else part
    total += boundary / 2
    return _mumford_coeff(k) * total


@cache
def _lambda_in_ch(lam: tuple[int, ...]) -> dict:
    """A lambda-monomial as a polynomial in ch_1, ch_3, ...: sorted ks -> coefficient.

    Newton's identity m lambda_m = sum over odd i <= m of i! ch_i lambda_{m-i},
    with ch_{2l}(E) = 0 for l >= 1.
    """
    if not lam:
        return {(): Fraction(1)}
    if len(lam) > 1:
        products = [(_lambda_in_ch(lam[:1]), _lambda_in_ch(lam[1:]))]
    else:
        m = lam[0]
        products = [({(i,): Fraction(factorial(i), m)}, _lambda_in_ch((m - i,) if i < m else ()))
                    for i in range(1, m + 1, 2)]
    poly: dict = {}
    for p1, p2 in products:
        for ks1, c1 in p1.items():
            for ks2, c2 in p2.items():
                key = tuple(sorted(ks1 + ks2))
                poly[key] = poly.get(key, 0) + c1 * c2
    return poly


def hodge_psi_integral(g: int, exps, lam) -> Fraction:
    """Integral of a cotangent monomial against a lambda-monomial.

    lam is the multiset of Hodge indices, e.g. (1, 1, 2) for the product of
    lambda_1 squared with lambda_2.
    """
    exps = tuple(int(a) for a in exps)
    lam = tuple(sorted(int(m) for m in lam))
    if any(a < 0 for a in exps):
        raise ValueError("negative cotangent exponent")
    if any(m < 1 for m in lam):
        raise ValueError("malformed monomial")
    if g < 0 or 2 * g - 2 + len(exps) <= 0:
        raise ValueError(f"unstable pair (g={g}, n={len(exps)})")
    if any(m > g for m in lam):
        return Fraction(0)  # lambda_m vanishes above the rank g
    return sum(c * _ch(g, exps, ks) for ks, c in _lambda_in_ch(lam).items())


@cache
def vertex_class(h: int) -> dict:
    """Product over u = 1 - zeta, 1 - zeta^2, -3 of sum_k (-1)^k lambda_k
    u^{h-k}, over e_0 = -9, lambda-degree <= 3h - 3 from genus 2 on: sorted
    lambda indices -> Fraction (cached, do not modify); u^m u'^n + u^n u'^m
    = 3^n s_{m-n} for m >= n, half of it per order."""
    cap = 3 * h - 3 if h >= 2 else 3 * h
    s = [2, 3]
    while len(s) <= h:
        s.append(3 * s[-1] - 3 * s[-2])
    poly: dict = {}
    for ks in product(range(h + 1), repeat=3):
        if sum(ks) <= cap:
            k1, k2, k3 = ks
            key = tuple(sorted(k for k in ks if k))
            c = (-1) ** sum(ks) * 3 ** (h - max(k1, k2)) * s[abs(k1 - k2)] * (-3) ** (h - k3)
            poly[key] = poly.get(key, 0) + c
    return {lam: Fraction(c, -18) for lam, c in poly.items() if c}
