"""Exact coefficient arithmetic over Q and over Q(zeta), zeta a primitive cube root of 1.

With the torus weights specialized to the cube roots of unity, equivariant
factors live in Q(zeta) = Q[z]/(z^2+z+1), and the series assembled from
them are rational (kp2.lring).  No floating point appears anywhere.

An element is stored as (n0 + n1*zeta)/d with Python integers n0, n1, d in
lowest terms: d > 0 and gcd(n0, n1, d) == 1, so zero is (0, 0, 1).  The form
is canonical, so equality compares the three integers, and every arithmetic
result is reduced by one three-argument gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import ConsistencyError

__all__ = [
    "CycScalar",
    "ConsistencyError",
    "ZERO",
    "ONE",
    "ZETA",
    "weight",
    "weight_pow",
    "rat_str",
    "to_cyc",
]


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class CycScalar:
    """An element a + b*zeta of Q(zeta) with zeta^2 = -1 - zeta.

    Stored as integers (n0 + n1*zeta)/d in lowest terms (d > 0 and
    gcd(n0, n1, d) == 1); a = n0/d and b = n1/d are read as Fractions.
    Immutable by convention.  The q-series and weights use it; a RingElem
    takes only rational ones.

    >>> z = CycScalar(0, 1)
    >>> z * z == CycScalar(-1, -1)
    True
    >>> (z * z * z).is_rational()
    True
    """

    __slots__ = ("n0", "n1", "d")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        a, b = _coerce(a), _coerce(b)
        # The lcm of two reduced denominators leaves gcd(n0, n1, d) == 1.
        da, db = a.denominator, b.denominator
        d = da * db // gcd(da, db)
        self.n0 = a.numerator * (d // da)
        self.n1 = b.numerator * (d // db)
        self.d = d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.n0, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of zeta."""
        return Fraction(self.n1, self.d)

    def is_zero(self) -> bool:
        return not self.n0 and not self.n1

    def is_rational(self) -> bool:
        return not self.n1

    def as_rational(self) -> Fraction:
        if self.n1:
            raise ConsistencyError(f"value {self!r} is not rational")
        return Fraction(self.n0, self.d)

    def conjugate(self) -> "CycScalar":
        # zeta -> zeta^2 = -1 - zeta
        return _make(self.n0 - self.n1, -self.n1, self.d)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.n0 + other.n0, self.n1 + other.n1, d)
        return _make(self.n0 * e + other.n0 * d, self.n1 * e + other.n1 * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return _make(-self.n0, -self.n1, self.d)

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.n0 - other.n0, self.n1 - other.n1, d)
        return _make(self.n0 * e - other.n0 * d, self.n1 * e - other.n1 * d, d * e)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        a0, a1, b0, b1 = self.n0, self.n1, other.n0, other.n1
        if not a1 and not b1:
            return _make(a0 * b0, 0, self.d * other.d)
        # (a0 + a1 z)(b0 + b1 z) with z^2 = -1 - z
        bb = a1 * b1
        return _make(a0 * b0 - bb, a0 * b1 + a1 * b0 - bb, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        n0, n1, d = self.n0, self.n1, self.d
        if not n0 and not n1:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        # conjugate over norm; norm(n0 + n1 z) = n0^2 - n0 n1 + n1^2 > 0
        norm = n0 * n0 - n0 * n1 + n1 * n1
        return _make((n0 - n1) * d, -n1 * d, norm)

    def __truediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "CycScalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.n0 == other.n0 and self.n1 == other.n1 and self.d == other.d

    def __hash__(self):
        # A rational value hashes like the equal int or Fraction.
        if not self.n1:
            return hash(Fraction(self.n0, self.d))
        return hash((self.n0, self.n1, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if not self.n1:
            return str(self.a)
        if not self.n0:
            return f"{self.b}*zeta"
        return f"{self.a} + {self.b}*zeta"

    def __repr__(self):
        if not self.n1:
            return f"CycScalar({self.a})"
        return f"CycScalar({self.a}, {self.b})"


def _make(n0: int, n1: int, d: int) -> CycScalar:
    """(n0 + n1*zeta)/d for integers with d > 0, reduced by one gcd."""
    g = gcd(n0, n1, d)
    if g != 1:
        n0 //= g
        n1 //= g
        d //= g
    out = object.__new__(CycScalar)
    out.n0 = n0
    out.n1 = n1
    out.d = d
    return out


def _lift(x):
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, int):
        return _make(x, 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return None


def to_cyc(x) -> CycScalar:
    """x, an int, Fraction or CycScalar, as a CycScalar; else TypeError."""
    return x if isinstance(x, CycScalar) else CycScalar(x)


ZERO = CycScalar(0)
ONE = CycScalar(1)
ZETA = CycScalar(0, 1)

_WEIGHTS = (ONE, ZETA, ZETA * ZETA)


def weight(i: int) -> CycScalar:
    """The torus weight at fixed point i, specialized to zeta^i."""
    if i not in (0, 1, 2):
        raise ValueError(f"fixed point index must be 0, 1 or 2, got {i}")
    return _WEIGHTS[i]


def weight_pow(i: int, k: int) -> CycScalar:
    """weight(i)**k, using that the weights are cube roots of unity."""
    if i not in (0, 1, 2):
        raise ValueError(f"fixed point index must be 0, 1 or 2, got {i}")
    return _WEIGHTS[(i * k) % 3]


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "num/den"; a Fraction is always in lowest terms."""
    return f"{x.numerator}/{x.denominator}"
