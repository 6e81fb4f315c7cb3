"""Holomorphic anomaly checks over the localization totals.

Every identity here is between elements of the differential ring
generated by L, X and the inverse normalization c.  Both sides are
assembled exactly and the difference must vanish as a ring element,
never just as a truncated q-series.  The left side is weighted by c^2
so that it becomes the derivative with respect to the propagator-like
generator taken at fixed normalization.

The three identities share one right side: verify_ttt is verify_ss56
with no markings, and verify_lift checks its T-derivative terms against
hyperplane insertions.  Every T-derivative goes through _dT, which holds
the genus-0/1 conventions of those terms.  The context keeps every
total, shared by all identities on it.
"""

from __future__ import annotations

from collections import namedtuple
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


class HAEReport(namedtuple("HAEReport", ("genus", "lhs", "rhs", "residual", "passed"))):
    """Outcome of one anomaly identity: both sides and their difference."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "residual": self.residual.to_json(),
            "pass": self.passed,
            "vacuous": self.vacuous,
        }

    @property
    def vacuous(self) -> bool:
        """Both sides exactly zero: the identity holds but proves nothing."""
        return self.lhs.is_zero() and self.rhs.is_zero()


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
                  delta: int = 0) -> RingElem:
    """Localization total with a ones, b hyperplanes, c_count squares
    and delta pulled-back descendents of the hyperplane.

    A negative count raises ValueError naming it.
    """
    for name, count in (("a", a), ("b", b), ("c", c_count), ("delta", delta)):
        if count < 0:
            raise ValueError(f"insertion count {name} must be non-negative, got {count}")
    insertions = (("H0",) * a + ("H1",) * b + ("H2",) * c_count
                  + ("psiH",) * delta)
    return correlator(ctx, g, insertions)


def _dT(ctx: Context, g: int, a: int, b: int, c_count: int, order: int) -> RingElem:
    """The order-th T-derivative of the genus-g pointed total, with the
    unstable cases replaced by their fixed conventions: in genus 0 with
    fewer than three markings each derivative is one extra hyperplane
    insertion, and unpointed genus 1 uses the closed forms.  A genus-0
    convention that is itself unstable raises ValueError."""
    if g == 0 and a + b + c_count < 3:
        return pointed_total(ctx, 0, a, b + order, c_count)
    if g == 1 and a + b + c_count == 0:
        return genus_one_inputs()[order - 1]
    out = pointed_total(ctx, g, a, b, c_count)
    for _ in range(order):
        out = out.d_dT()
    return out


def verify_ss56(ctx: Context, g: int, a: int, b: int, c_count: int) -> HAEReport:
    """The pointed anomaly identity with the descendent correction.

    The right side sums ordered genus splittings weighted by binomial
    distribution counts of the markings, adds the second T-derivative one
    genus down, both times 1/2, and subtracts a third of c_count times
    the total with one square insertion traded for a descendent.  A
    negative count raises ValueError, from pointed_total, before any
    assembly.
    """
    n = a + b + c_count
    lhs = RingElem.c(2) * pointed_total(ctx, g, a, b, c_count).d_da2()

    split = RingElem.zero()
    for g1 in range(g + 1):
        g2 = g - g1
        for a1 in range(a + 1):
            for b1 in range(b + 1):
                for c1 in range(c_count + 1):
                    n1 = a1 + b1 + c1
                    n2 = n - n1
                    if 2 * g1 - 2 + n1 < 0 or 2 * g2 - 2 + n2 < 0:
                        continue
                    weight = comb(a, a1) * comb(b, b1) * comb(c_count, c1)
                    term = (_dT(ctx, g1, a1, b1, c1, 1)
                            * _dT(ctx, g2, a - a1, b - b1, c_count - c1, 1))
                    split = split + term.scale(weight)
    rhs = split.scale(Fraction(1, 2))
    if g >= 1:
        rhs = rhs + _dT(ctx, g - 1, a, b, c_count, 2).scale(Fraction(1, 2))
    if c_count >= 1:
        desc = pointed_total(ctx, g, a, b, c_count - 1, delta=1)
        rhs = rhs - desc.scale(Fraction(c_count, 3))
    return _report(g, lhs, rhs)


def verify_ttt(ctx: Context, g: int = 2) -> HAEReport:
    """The unpointed anomaly identity at genus g: verify_ss56 with no markings."""
    if g < 2:
        raise ValueError("the unpointed identity starts at genus 2")
    return verify_ss56(ctx, g, 0, 0, 0)


def verify_lift(ctx: Context, g: int, two_point: bool = False) -> HAEReport:
    """Pointed lift of the T-derivatives.

    The one-point form checks that a single hyperplane insertion agrees
    with d_dT of the unpointed total at genus g.  The two-point form
    checks two hyperplane insertions at genus g-1 against the second
    T-derivative there, so it needs g >= 2.
    """
    if two_point:
        if g < 2:
            raise ValueError(f"the two-point lift needs genus at least 2, got {g}")
        h = g - 1
        return _report(h, pointed_total(ctx, h, 0, 2, 0), _dT(ctx, h, 0, 0, 0, 2))
    return _report(g, pointed_total(ctx, g, 0, 1, 0), _dT(ctx, g, 0, 0, 0, 1))

