"""The differential ring Q[L, 1/L][X][c, 1/c] that invariants live in.

Coefficients are Fractions; a zeta part raises ConsistencyError, and
kp2.labelled pairs two elements for a + b zeta.

Monomials are keyed by integer exponent triples (l, x, e) for L^l X^x c^e
with x >= 0.  The derivation D acts by

    D(L) = (L^4 - L)/3
    D(X) = -X^2 + (L^3 - 1) X + (2/9)(L^3 - 1)
    D(c) = -c X

and MirrorData.eval_q (kp2.mirror) sends L, X, c to their q-expansions,
under which D becomes q d/dq.  The propagator coordinate
A2 = (3X + 1 - L^3/2)/L^3 is reached by a ring automorphism: to_a2_form
substitutes X = (L^3 A2 + L^3/2 - 1)/3 and fixes L and c, and its result
is a RingElem that holds A2 in the X slot; substitute_x with the image
(3X + 1 - L^3/2)/L^3 undoes it.

Keys pack l + 256, x, e + 256 into 10-bit fields (9 bits under a guard
bit): -256 <= l, e < 256 and 0 <= x < 512, else ValueError, never an
aliased key.  A product adds keys (less the key of 1); a field leaving
the box sets a guard bit or the sign, checked on each moved result.

One accumulation loop, RingElem.dot, makes every sum and product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from . import ConsistencyError

__all__ = ["RingElem"]

_ONE_KEY = (256 << 20) | 256
_INVALID = ~((1 << 29) - 1) | (1 << 19) | (1 << 9)  # guard bits and all above
_L3, _X1 = 3 << 20, 1 << 10


def _pack(l: int, x: int, e: int) -> int:
    if not (-256 <= l < 256 and 0 <= x < 512 and -256 <= e < 256):
        raise ValueError(f"exponents (L^{l}, X^{x}, c^{e}) outside the ring's key range")
    return ((l + 256) << 20) + (x << 10) + e + 256


def _unpack(key: int) -> tuple[int, int, int]:
    return (key >> 20) - 256, (key >> 10) & 511, (key & 511) - 256


def _checked(acc: dict) -> dict:
    if acc and reduce(or_, acc) & _INVALID:
        raise ValueError("an exponent left the ring's key range")
    return acc


class RingElem:
    """A Laurent polynomial in L and c, polynomial in X, over Q: key k has
    coefficient num[k]/den, num a dict of nonzero ints, den > 0, canonical
    (gcd(den, all numerators) == 1; zero is den 1 with no terms), so
    equality compares den and num.  terms copies them out as Fractions.
    Immutable."""

    __slots__ = ("den", "num")

    def __init__(self, terms: dict | None = None):
        lifted = {_pack(*k): r for k, c in (terms or {}).items() if (r := _rational(c))}
        # the lcm of reduced denominators leaves the form canonical
        self.den = den = lcm(*(c.denominator for c in lifted.values()))
        self.num = {k: c.numerator * (den // c.denominator) for k, c in lifted.items()}

    @property
    def terms(self) -> dict:
        """The coefficients, a new dict (l, x, e) -> Fraction."""
        return {_unpack(k): Fraction(n, self.den) for k, n in self.num.items()}

    @classmethod
    def zero(cls) -> "RingElem":
        return cls()

    @classmethod
    def one(cls) -> "RingElem":
        return _UNIT

    @classmethod
    def const(cls, value) -> "RingElem":
        return cls({(0, 0, 0): value})

    @classmethod
    def L(cls, power: int = 1) -> "RingElem":
        return cls({(power, 0, 0): 1})

    @classmethod
    def X(cls) -> "RingElem":
        return cls({(0, 1, 0): 1})

    @classmethod
    def c(cls, power: int = 1) -> "RingElem":
        return cls({(0, 0, power): 1})

    @classmethod
    def monomial(cls, coeff, l: int = 0, x: int = 0, e: int = 0) -> "RingElem":
        return cls({(l, x, e): coeff})

    @staticmethod
    def sum(items) -> "RingElem":
        """The sum of items: dot with one()."""
        return RingElem.dot([(item, _UNIT) for item in items])

    @staticmethod
    def dot(pairs) -> "RingElem":
        """sum(x * y for x, y in pairs) over the lcm of the x.den * y.den,
        reduced once; a lone pair (x, one()) is x."""
        kept, den = [], 1
        for x, y in pairs:
            if x.num and y.num:
                kept.append((x, y))
                den = lcm(den, x.den * y.den)
        if len(kept) == 1 and kept[0][1] is _UNIT:
            return kept[0][0]
        acc: dict = {}
        get = acc.get
        for x, y in kept:
            m = den // (x.den * y.den)
            if len(x.num) > len(y.num):  # the shorter outside
                x, y = y, x
            for k1, a in x.num.items():
                k1, a = k1 - _ONE_KEY, a * m
                for k2, b in y.num.items():
                    k = k1 + k2
                    acc[k] = get(k, 0) + a * b
        return _reduced(_checked(acc), den)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        other = _lift(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __bool__(self):
        return bool(self.num)

    def x_degree(self) -> int:
        """Largest X-exponent present (-1 for the zero element)."""
        return max(((k >> 10) & 511 for k in self.num), default=-1)

    def c_degrees(self) -> set[int]:
        return {(k & 511) - 256 for k in self.num}

    def l_range(self) -> tuple[int, int]:
        """(min, max) L-exponent present; (0, 0) for the zero element."""
        n = self.num
        return ((min(n) >> 20) - 256, (max(n) >> 20) - 256) if n else (0, 0)

    def x_coefficient(self, x: int) -> "RingElem":
        """The coefficient of X^x, as an element with the X-power stripped."""
        return _reduced({k - (x << 10): v for k, v in self.num.items() if (k >> 10) & 511 == x},
                        self.den)

    def __add__(self, other):
        other = _lift(other)
        return RingElem.sum((self, other)) if isinstance(other, RingElem) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _ring(self.den, {k: -v for k, v in self.num.items()})

    def __mul__(self, other):
        """The product; a rational scalar enters as a constant."""
        other = _lift(other)
        return RingElem.dot([(self, other)]) if isinstance(other, RingElem) else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RingElem):
            return self * (1 / _rational(other))
        if len(other.num) != 1:
            raise ValueError("ring division only by monomials")
        ((l, x, e), c), = other.terms.items()
        if x != 0:
            raise ValueError("X is not invertible in the ring")
        return self * RingElem.monomial(1 / c, -l, 0, -e)

    def scale(self, s) -> "RingElem":
        return self * s

    def derive(self) -> "RingElem":
        """The derivation D, term by term via the Leibniz rule, over 9 * den."""
        acc: dict = {}
        for k, n in self.num.items():
            l, x, e = _unpack(k)
            for key, m in ((k + _L3, 3 * l + 9 * x), (k, -3 * l - 9 * x),
                           (k + _X1, -9 * (x + e)), (k + _L3 - _X1, 2 * x), (k - _X1, -2 * x)):
                if m:
                    acc[key] = acc.get(key, 0) + m * n
        return _reduced(_checked(acc), 9 * self.den)

    def d_dT(self) -> "RingElem":
        """c D, the derivative in the flat coordinate."""
        return RingElem.c(1) * self.derive()

    def d_da2(self) -> "RingElem":
        """(L^3/3) d/dX, the partial derivative along A2 at fixed L."""
        return _reduced(_checked({k + _L3 - _X1: ((k >> 10) & 511) * v
                                  for k, v in self.num.items() if (k >> 10) & 511}), 3 * self.den)

    def eval_at(self, l_value, x_value, c_value=1):
        """The value at L, X, c; an int is made a Fraction (1 ** -3 is a float)."""
        lv, xv, cv = (Fraction(v) if isinstance(v, int) else v for v in (l_value, x_value, c_value))
        return sum((c * lv**l * xv**x * cv**e for (l, x, e), c in self.terms.items()), Fraction())

    def substitute_x(self, image: "RingElem") -> "RingElem":
        """The ring map that sends X to image and fixes L and c, by Horner's rule."""
        out = RingElem.zero()
        for x in range(self.x_degree(), -1, -1):
            out = out * image + self.x_coefficient(x)
        return out

    def to_a2_form(self) -> "RingElem":
        """This element in A2, held in the X slot: X = (L^3 A2 + L^3/2 - 1)/3."""
        return self.substitute_x(RingElem({(3, 1, 0): Fraction(1, 3), (3, 0, 0): Fraction(1, 6),
                                           (0, 0, 0): Fraction(-1, 3)}))

    def __str__(self):
        return " + ".join("*".join([f"({c})"] + [f"{v}^{p}" if p != 1 else v
                                                for v, p in zip("LXc", k) if p])
                          for k, c in sorted(self.terms.items())) or "0"

    __repr__ = __str__

    def to_json(self, x_name: str = "X") -> list[dict]:
        """The terms in exponent order; x_name keys the X-exponent ("A2" for
        an element from to_a2_form)."""
        return [{"L": l, x_name: x, "c": e,
                 "coeff": {"a": f"{c.numerator}/{c.denominator}", "b": "0/1"}}
                for (l, x, e), c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data: list[dict]) -> "RingElem":
        """The element to_json wrote; a zeta part b raises ConsistencyError."""
        for t in data:
            if b := Fraction(t["coeff"]["b"]):
                a = Fraction(t["coeff"]["a"])
                raise ConsistencyError(f"value CycScalar({a}, {b}) is not rational")
        return cls({(t["L"], t["X"], t["c"]): Fraction(t["coeff"]["a"]) for t in data})


def _rational(c):
    """c, an int, Fraction or rational CycScalar, as a Fraction, else TypeError."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if not hasattr(c, "as_rational"):
        raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
    return c.as_rational()


def _lift(x):
    """A scalar x as a constant, anything else as it is."""
    try:
        return x if isinstance(x, RingElem) else RingElem.const(x)
    except TypeError:
        return x


def _ring(den: int, num: dict) -> RingElem:
    """The RingElem num/den from canonical parts."""
    out = object.__new__(RingElem)
    out.den, out.num = den, num
    return out


def _reduced(num: dict, den: int) -> RingElem:
    """num/den, zeros dropped, over one gcd of den and every numerator
    (zero: den 1)."""
    if 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        den //= g
    return _ring(den, num)


_UNIT = RingElem({(0, 0, 0): 1})
