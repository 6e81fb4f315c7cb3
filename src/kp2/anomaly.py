"""Holomorphic anomaly checks over the localization totals.

Every identity here is between elements of the differential ring
generated by L, X and the inverse normalization c.  Both sides are
assembled exactly and the difference must vanish as a ring element,
never just as a truncated q-series.  The left side is weighted by c^2
so that it becomes the derivative with respect to the propagator-like
generator taken at fixed normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .lring import RingElem
from .localization import Context, correlator

__all__ = [
    "HAEReport",
    "genus_one_inputs",
    "pointed_total",
    "verify_lift",
    "verify_ss56",
    "verify_ttt",
]


@dataclass(frozen=True)
class HAEReport:
    """Outcome of one anomaly identity: both sides and their difference."""

    genus: int
    lhs: RingElem
    rhs: RingElem
    residual: RingElem
    passed: bool

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "residual": self.residual.to_json(),
            "pass": self.passed,
            # both sides exactly zero: the identity holds but proves nothing
            "vacuous": self.lhs.is_zero() and self.rhs.is_zero(),
        }


def _report(genus: int, lhs: RingElem, rhs: RingElem) -> HAEReport:
    residual = lhs - rhs
    return HAEReport(genus, lhs, rhs, residual, residual.is_zero())


def genus_one_inputs() -> tuple[RingElem, RingElem]:
    """Closed forms for the first and second T-derivatives in genus 1.

    The genus-1 series itself has a logarithmic term, so only its
    T-derivatives live in the ring.  The first derivative is
    -(c/6)(3X + 1 - L^3/2); the second follows by applying d_dT.
    """
    inner = (RingElem.X().scale(3) + RingElem.one()
             - RingElem.L(3).scale(Fraction(1, 2)))
    d_f1 = (RingElem.c(1) * inner).scale(Fraction(-1, 6))
    return d_f1, d_f1.d_dT()


def pointed_total(ctx: Context, g: int, a: int, b: int, c_count: int,
                  delta: int = 0, threads: int = 1) -> RingElem:
    """Localization total with a ones, b hyperplanes, c_count squares
    and delta pulled-back descendents of the hyperplane."""
    insertions = (("H0",) * a + ("H1",) * b + ("H2",) * c_count
                  + ("psiH",) * delta)
    if 2 * g - 2 + len(insertions) <= 0:
        raise ValueError("unstable pointed total requested")
    return correlator(ctx, g, insertions, threads=threads)


def _split_dT(ctx: Context, g: int, a: int, b: int, c_count: int) -> RingElem:
    """T-derivative of one splitting factor, with the unstable cases
    replaced by their fixed conventions: genus 0 with two markings
    becomes a three-point total with an extra hyperplane, genus 1 with
    no markings uses the closed form."""
    n = a + b + c_count
    if g == 0 and n == 2:
        return pointed_total(ctx, 0, a, b + 1, c_count)
    if g == 1 and n == 0:
        return genus_one_inputs()[0]
    return pointed_total(ctx, g, a, b, c_count).d_dT()


def _second_dT(ctx: Context, g: int, a: int, b: int, c_count: int) -> RingElem:
    """Second T-derivative of the genus-(g) pointed total, with the
    unstable replacements: two extra hyperplane insertions in genus 0,
    the closed form in unpointed genus 1."""
    n = a + b + c_count
    if g == 0 and n in (1, 2):
        return pointed_total(ctx, 0, a, b + 2, c_count)
    if g == 1 and n == 0:
        return genus_one_inputs()[1]
    if g == 0 and n == 0:
        raise ValueError("no convention for an unpointed genus-0 total")
    first = pointed_total(ctx, g, a, b, c_count).d_dT()
    return first.d_dT()


def verify_ttt(ctx: Context, g: int = 2,
               negative_control: bool = False) -> HAEReport:
    """Unpointed anomaly identity at genus g.

    With negative_control the halving factor on the right side is
    replaced by 1, which must break the identity.
    """
    if g < 2:
        raise ValueError("the unpointed identity starts at genus 2")
    if g > 2:
        raise ValueError("vertex genus beyond the Hodge integral scope")
    d_f1, d2_f1 = genus_one_inputs()
    total = correlator(ctx, g, ())
    lhs = RingElem.c(2) * total.d_da2()

    def d_t(i: int) -> RingElem:
        if i == 1:
            return d_f1
        return correlator(ctx, i, ()).d_dT()

    split = RingElem.zero()
    for i in range(1, g):
        split = split + d_t(g - i) * d_t(i)
    second = d2_f1 if g - 1 == 1 else correlator(ctx, g - 1, ()).d_dT().d_dT()
    half = Fraction(1) if negative_control else Fraction(1, 2)
    rhs = split.scale(half) + second.scale(half)
    return _report(g, lhs, rhs)


def verify_lift(ctx: Context, g: int, two_point: bool = False) -> HAEReport:
    """Pointed lift of the T-derivatives.

    The one-point form checks that a single hyperplane insertion agrees
    with d_dT of the unpointed total at genus g.  The two-point form
    checks two hyperplane insertions at genus g-1 against the second
    T-derivative there.
    """
    d_f1, d2_f1 = genus_one_inputs()
    if two_point:
        h = g - 1
        lhs = correlator(ctx, h, ("H1", "H1"))
        rhs = d2_f1 if h == 1 else correlator(ctx, h, ()).d_dT().d_dT()
        return _report(h, lhs, rhs)
    lhs = correlator(ctx, g, ("H1",))
    rhs = d_f1 if g == 1 else correlator(ctx, g, ()).d_dT()
    return _report(g, lhs, rhs)


def verify_ss56(ctx: Context, g: int, a: int, b: int,
                c_count: int) -> HAEReport:
    """Pointed anomaly identity with the descendent correction.

    The right side sums ordered genus splittings weighted by binomial
    distribution counts of the markings, adds half the second
    T-derivative one genus down, and subtracts a third of c_count times
    the total with one square insertion traded for a descendent.
    """
    n = a + b + c_count
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable pointed total requested")
    total = pointed_total(ctx, g, a, b, c_count)
    lhs = RingElem.c(2) * total.d_da2()

    split = RingElem.zero()
    for g1 in range(0, g + 1):
        g2 = g - g1
        for a1 in range(a + 1):
            for b1 in range(b + 1):
                for c1 in range(c_count + 1):
                    n1 = a1 + b1 + c1
                    n2 = n - n1
                    if 2 * g1 - 2 + n1 < 0 or 2 * g2 - 2 + n2 < 0:
                        continue
                    weight = comb(a, a1) * comb(b, b1) * comb(c_count, c1)
                    term = (_split_dT(ctx, g1, a1, b1, c1)
                            * _split_dT(ctx, g2, a - a1, b - b1, c_count - c1))
                    split = split + term.scale(weight)
    rhs = split.scale(Fraction(1, 2))
    if g >= 1:
        rhs = rhs + _second_dT(ctx, g - 1, a, b, c_count).scale(Fraction(1, 2))
    if c_count >= 1:
        desc = pointed_total(ctx, g, a, b, c_count - 1, delta=1)
        rhs = rhs - desc.scale(Fraction(c_count, 3))
    return _report(g, lhs, rhs)
