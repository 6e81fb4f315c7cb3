"""Exact coefficient arithmetic over Q and over Q(zeta), zeta a primitive cube root of 1.

After the torus weights are specialized to the cube roots of unity every
quantity in the engine lives in Q(zeta) = Q[z]/(z^2+z+1), and the totals of
interest collapse to plain rationals.  No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "CycScalar",
    "ConsistencyError",
    "ZERO",
    "ONE",
    "ZETA",
    "weight",
    "weight_pow",
    "euler_at",
    "rat_str",
]


class ConsistencyError(Exception):
    """An internal exact identity failed (fatal: signals a bug, not bad input)."""


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class CycScalar:
    """An element a + b*zeta of Q(zeta) with zeta^2 = -1 - zeta.

    Immutable by convention.  The rational fast path (b == 0) matters: the
    whole fixed-point-0 pipeline is rational and runs through here.

    >>> z = CycScalar(0, 1)
    >>> z * z == CycScalar(-1, -1)
    True
    >>> (z * z * z).is_rational()
    True
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        self.a = _coerce(a)
        self.b = _coerce(b)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def as_rational(self) -> Fraction:
        if self.b:
            raise ConsistencyError(f"value {self!r} is not rational")
        return self.a

    def conjugate(self) -> "CycScalar":
        # zeta -> zeta^2 = -1 - zeta
        return _exact(self.a - self.b, -self.b)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return _exact(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return _exact(-self.a, -self.b)

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return _exact(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return _exact(other.a - self.a, other.b - self.b)

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if not self.b and not other.b:
            return _exact(self.a * other.a, _QZERO)
        # (a1 + b1 z)(a2 + b2 z) with z^2 = -1 - z
        bb = self.b * other.b
        return _exact(self.a * other.a - bb, self.a * other.b + self.b * other.a - bb)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        if not self.b:
            return CycScalar(1 / self.a)
        # conjugate over norm; norm(a + b z) = a^2 - a b + b^2
        n = self.a * self.a - self.a * self.b + self.b * self.b
        return CycScalar((self.a - self.b) / n, -self.b / n)

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
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*zeta"
        return f"{self.a} + {self.b}*zeta"

    def __repr__(self):
        if not self.b:
            return f"CycScalar({self.a})"
        return f"CycScalar({self.a}, {self.b})"

    def to_json(self) -> dict:
        return {"a": rat_str(self.a), "b": rat_str(self.b)}


_QZERO = Fraction(0)


def _exact(a: Fraction, b: Fraction) -> CycScalar:
    """a + b*zeta from parts that are already Fractions, without coercion.

    Sums, differences, negations and products of Fractions are Fractions,
    so the arithmetic results skip the checks of the public constructor.
    """
    out = object.__new__(CycScalar)
    out.a = a
    out.b = b
    return out


def _lift(x):
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar(x)
    return None


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


def euler_at(i: int) -> CycScalar:
    """Euler class of the three fixed-point directions; equals -9 for every i."""
    w = weight(i)
    others = [weight(j) for j in (0, 1, 2) if j != i]
    e = (w - others[0]) * (w - others[1]) * (CycScalar(-3) * w)
    return e


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "num/den" in lowest terms (Fraction keeps it reduced)."""
    return f"{x.numerator}/{x.denominator}"
