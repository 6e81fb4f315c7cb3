"""The differential ring Q(zeta)[L, 1/L][X][c, 1/c] that invariants live in.

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
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from .scalars import ONE, ZERO, CycScalar, _make, to_cyc

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
    """A Laurent polynomial in L and c, polynomial in X, over Q(zeta).

    den > 0 and dicts from key to nonzero int, the rational part n0 and
    the zeta part n1: key k has coefficient (n0[k] + n1[k]*zeta)/den.
    Canonical (gcd(den, all numerators) == 1, zero is den 1 with no terms),
    so equality compares den, n0 and n1.  A zeta-free product costs one
    integer multiply-add per term pair.  terms views the CycScalars.
    Immutable.
    """

    __slots__ = ("den", "n0", "n1")

    def __init__(self, terms: dict | None = None):
        lifted = {}
        if terms:
            for (l, x, e), coeff in terms.items():
                coeff = to_cyc(coeff)
                if coeff.is_zero():
                    continue
                if x < 0:
                    raise ValueError("negative powers of X are not part of the ring")
                lifted[_pack(l, x, e)] = coeff
        # the lcm of reduced denominators leaves the form canonical
        den = lcm(*(c.d for c in lifted.values()))
        self.den = den
        self.n0 = {k: c.n0 * (den // c.d) for k, c in lifted.items() if c.n0}
        self.n1 = {k: c.n1 * (den // c.d) for k, c in lifted.items() if c.n1}

    @property
    def terms(self) -> "Terms":
        """The coefficients, as a read-only mapping from (l, x, e) to CycScalar."""
        return Terms(self)

    def _keys(self):
        return self.n0.keys() | self.n1.keys() if self.n1 else self.n0.keys()

    # -- constructors

    @classmethod
    def zero(cls) -> "RingElem":
        return cls()

    @classmethod
    def one(cls) -> "RingElem":
        return cls({(0, 0, 0): ONE})

    @classmethod
    def const(cls, value) -> "RingElem":
        return cls({(0, 0, 0): to_cyc(value)})

    @classmethod
    def L(cls, power: int = 1) -> "RingElem":
        return cls({(power, 0, 0): ONE})

    @classmethod
    def X(cls) -> "RingElem":
        return cls({(0, 1, 0): ONE})

    @classmethod
    def c(cls, power: int = 1) -> "RingElem":
        return cls({(0, 0, power): ONE})

    @classmethod
    def monomial(cls, coeff, l: int = 0, x: int = 0, e: int = 0) -> "RingElem":
        return cls({(l, x, e): to_cyc(coeff)})

    @staticmethod
    def sum(items) -> "RingElem":
        """The sum of the ring elements in items, accumulated over one denominator."""
        items = [item for item in items if item.n0 or item.n1]
        if len(items) == 1:
            return items[0]
        den = lcm(*(item.den for item in items))
        acc0, acc1 = {}, {}
        for item in items:
            m = den // item.den
            for acc, part in ((acc0, item.n0), (acc1, item.n1)):
                get = acc.get
                for k, v in part.items():
                    acc[k] = get(k, 0) + v * m
        return _reduced(acc0, acc1, den)

    # -- structure

    def is_zero(self) -> bool:
        return not self.n0 and not self.n1

    def __eq__(self, other):
        other = _lift(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.den == other.den and self.n0 == other.n0 and self.n1 == other.n1

    __hash__ = None

    def __bool__(self):
        return bool(self.n0 or self.n1)

    def x_degree(self) -> int:
        """Largest X-exponent present (-1 for the zero element)."""
        return max(((k >> 10) & 511 for k in self._keys()), default=-1)

    def c_degrees(self) -> set[int]:
        return {(k & 511) - 256 for k in self._keys()}

    def l_range(self) -> tuple[int, int]:
        """(min, max) L-exponent present; (0, 0) for the zero element."""
        keys = self._keys()
        return ((min(keys) >> 20) - 256, (max(keys) >> 20) - 256) if keys else (0, 0)

    def x_coefficient(self, x: int) -> "RingElem":
        """The coefficient of X^x, as an element with the X-power stripped."""
        return _reduced(*({k - (x << 10): v for k, v in part.items() if (k >> 10) & 511 == x}
                          for part in (self.n0, self.n1)), self.den)

    # -- arithmetic

    def __add__(self, other):
        other = _lift(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return RingElem.sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _ring(self.den, *({k: -v for k, v in part.items()} for part in (self.n0, self.n1)))

    def __mul__(self, other):
        """The product; a rational scalar p/q scales the numerators by p, den by q."""
        if isinstance(other, CycScalar) and not other.n1:
            other = Fraction(other.n0, other.d)
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            return _reduced(*({k: v * p for k, v in part.items()} for part in (self.n0, self.n1)),
                            self.den * q)
        other = _lift(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        a0, a1, b0, b1 = self.n0, self.n1, other.n0, other.n1
        # (a0 + a1 z)(b0 + b1 z) = a0 b0 - a1 b1 + (a0 b1 + a1 b0 - a1 b1) z
        acc0, acc1 = _product(a0, b0, {}), {}
        if a1 or b1:
            _product(a1, b0, _product(a0, b1, acc1))
            for k, v in _product(a1, b1, {}).items():
                acc0[k] = acc0.get(k, 0) - v
                acc1[k] = acc1.get(k, 0) - v
        return _reduced(_checked(acc0), _checked(acc1), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * to_cyc(other).inverse()
        if isinstance(other, RingElem):
            if len(other.terms) != 1:
                raise ValueError("ring division only by monomials")
            ((l, x, e), c), = other.terms.items()
            if x != 0:
                raise ValueError("X is not invertible in the ring")
            return self * RingElem.monomial(c.inverse(), -l, 0, -e)
        return NotImplemented

    def scale(self, s) -> "RingElem":
        return self * s

    def conjugate(self) -> "RingElem":
        """zeta -> zeta^2 on every coefficient; L, X and c are fixed."""
        if not self.n1:
            return self
        n0 = dict(self.n0)  # (n0 + n1 z) -> (n0 - n1) - n1 z
        for k, v in self.n1.items():
            n0[k] = n0.get(k, 0) - v
        return _reduced(n0, {k: -v for k, v in self.n1.items()}, self.den)

    # -- calculus

    def derive(self) -> "RingElem":
        """The derivation D, term by term via the Leibniz rule, over 9 * den."""
        out = []
        for part in (self.n0, self.n1):
            acc: dict = {}
            for k, n in part.items():
                l, x, e = _unpack(k)
                for key, m in ((k + _L3, 3 * l + 9 * x), (k, -3 * l - 9 * x),
                               (k + _X1, -9 * (x + e)), (k + _L3 - _X1, 2 * x), (k - _X1, -2 * x)):
                    if m:
                        acc[key] = acc.get(key, 0) + m * n
            out.append(_checked(acc))
        return _reduced(*out, 9 * self.den)

    def d_dT(self) -> "RingElem":
        """c * D, the derivative with respect to the flat coordinate."""
        return RingElem.c(1) * self.derive()

    def d_da2(self) -> "RingElem":
        """(L^3/3) d/dX, the partial derivative along A2 at fixed L."""
        return _reduced(*(_checked({k + _L3 - _X1: ((k >> 10) & 511) * v
                                    for k, v in part.items() if (k >> 10) & 511})
                          for part in (self.n0, self.n1)), 3 * self.den)

    # -- evaluation

    def eval_at(self, l_value, x_value, c_value=1) -> CycScalar:
        """Numeric evaluation at given values of L, X and c."""
        lv, xv, cv = to_cyc(l_value), to_cyc(x_value), to_cyc(c_value)
        return sum((c * lv**l * xv**x * cv**e for (l, x, e), c in self.terms.items()), ZERO)

    # -- substitution

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
        terms = self.terms
        parts = []
        for (l, x, e) in sorted(terms):
            factors = [f"({terms[(l, x, e)]})"]
            if l:
                factors.append(f"L^{l}" if l != 1 else "L")
            if x:
                factors.append(f"X^{x}" if x != 1 else "X")
            if e:
                factors.append(f"c^{e}" if e != 1 else "c")
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"

    __repr__ = __str__

    def to_json(self, x_name: str = "X") -> list[dict]:
        """The terms in exponent order; x_name keys the X-exponent ("A2" for
        an element from to_a2_form)."""
        terms = self.terms
        return [{"L": l, x_name: x, "c": e, "coeff": terms[(l, x, e)].to_json()}
                for (l, x, e) in sorted(terms)]

    @classmethod
    def from_json(cls, data: list[dict]) -> "RingElem":
        return cls({(t["L"], t["X"], t["c"]): CycScalar(Fraction(t["coeff"]["a"]),
                                                         Fraction(t["coeff"]["b"])) for t in data})


class Terms(Mapping):
    """Read-only view of a RingElem's coefficients: (l, x, e) -> CycScalar.
    Each read reduces one coefficient; equal to any mapping with equal items."""

    __slots__ = ("_elem",)

    def __init__(self, elem: RingElem):
        self._elem = elem

    def __getitem__(self, key) -> CycScalar:
        e = self._elem
        try:
            k = _pack(*key)
        except (TypeError, ValueError):
            k = None
        if k not in e.n0 and k not in e.n1:
            raise KeyError(key)
        return _make(e.n0.get(k, 0), e.n1.get(k, 0), e.den)

    def __len__(self) -> int:
        return len(self._elem._keys())

    def __iter__(self):
        return map(_unpack, self._elem._keys())


def _lift(x):
    return RingElem.const(x) if isinstance(x, (int, Fraction, CycScalar)) else x


def _ring(den: int, n0: dict, n1: dict) -> RingElem:
    """A RingElem from nonzero integer parts over den, already in canonical form."""
    out = object.__new__(RingElem)
    out.den, out.n0, out.n1 = den, n0, n1
    return out


def _product(p: dict, q: dict, acc: dict) -> dict:
    """acc plus the product of the integer polynomials p and q; keys unchecked."""
    get = acc.get
    for k1, a in p.items():
        k1 -= _ONE_KEY
        for k2, b in q.items():
            k = k1 + k2
            acc[k] = get(k, 0) + a * b
    return acc


def _reduced(n0: dict, n1: dict, den: int) -> RingElem:
    """n0 + n1 zeta over den, zeros dropped, divided by one gcd over den and
    every numerator (zero: den 1)."""
    if 0 in n0.values():
        n0 = {k: v for k, v in n0.items() if v}
    if n1 and 0 in n1.values():
        n1 = {k: v for k, v in n1.items() if v}
    g = gcd(den, *n0.values(), *n1.values())
    if g != 1:
        n0 = {k: v // g for k, v in n0.items()}
        n1 = {k: v // g for k, v in n1.items()}
        den //= g
    return _ring(den, n0, n1)
