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
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .scalars import ONE, ZERO, CycScalar, _make, to_cyc

__all__ = ["RingElem"]


class RingElem:
    """A Laurent polynomial in L and c, polynomial in X, over Q(zeta).

    Stored over one denominator: den is a positive integer and nums maps each
    exponent triple to a nonzero integer pair (n0, n1), the coefficient
    (n0 + n1*zeta)/den.  The form is canonical, gcd(den, every n0, every n1)
    == 1 and zero is den == 1 with no terms, so equality compares den and
    nums.  Products multiply the pairs over the product of the denominators,
    sums lift them over the lcm, and each result is reduced once, by one gcd
    over the whole element.  terms is a read-only view of the coefficients as
    CycScalars.  Immutable by convention.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms: dict | None = None):
        lifted = {}
        if terms:
            for (l, x, e), coeff in terms.items():
                coeff = to_cyc(coeff)
                if coeff.is_zero():
                    continue
                if x < 0:
                    raise ValueError("negative powers of X are not part of the ring")
                lifted[(l, x, e)] = coeff
        # Over the lcm of reduced denominators no prime divides den and every
        # numerator, so the form is already canonical.
        den = lcm(*(c.d for c in lifted.values()))
        self.den = den
        self.nums = {key: (c.n0 * (den // c.d), c.n1 * (den // c.d))
                     for key, c in lifted.items()}

    @property
    def terms(self) -> "Terms":
        """The coefficients, as a read-only mapping from (l, x, e) to CycScalar."""
        return Terms(self.nums, self.den)

    # -- constructors ------------------------------------------------------

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
        items = [item for item in items if item.nums]
        if len(items) == 1:
            return items[0]
        den = lcm(*(item.den for item in items))
        acc: dict = {}
        for item in items:
            m = den // item.den
            for key, (n0, n1) in item.nums.items():
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [n0 * m, n1 * m]
                else:
                    prev[0] += n0 * m
                    prev[1] += n1 * m
        return _reduced(acc, den)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = RingElem.const(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __bool__(self):
        return bool(self.nums)

    def x_degree(self) -> int:
        """Largest X-exponent present (-1 for the zero element)."""
        return max((x for (_, x, _) in self.nums), default=-1)

    def c_degrees(self) -> set[int]:
        return {e for (_, _, e) in self.nums}

    def l_range(self) -> tuple[int, int]:
        """(min, max) L-exponent present; (0, 0) for the zero element."""
        ls = [l for (l, _, _) in self.nums]
        if not ls:
            return (0, 0)
        return (min(ls), max(ls))

    def x_coefficient(self, x: int) -> "RingElem":
        """The coefficient of X^x, as an element with the X-power stripped."""
        return _reduced(
            {(l, 0, e): pair for (l, xx, e), pair in self.nums.items() if xx == x}, self.den
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = RingElem.const(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return RingElem.sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = RingElem.const(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _ring({key: (-n0, -n1) for key, (n0, n1) in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return _scaled(self.nums, self.den, to_cyc(other))
        if not isinstance(other, RingElem):
            return NotImplemented
        right = other.nums.items()
        acc: dict = {}
        for (l1, x1, e1), (a0, a1) in self.nums.items():
            for (l2, x2, e2), (b0, b1) in right:
                # (a0 + a1 z)(b0 + b1 z) with z^2 = -1 - z
                key = (l1 + l2, x1 + x2, e1 + e2)
                bb = a1 * b1
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [a0 * b0 - bb, a0 * b1 + a1 * b0 - bb]
                else:
                    prev[0] += a0 * b0 - bb
                    prev[1] += a0 * b1 + a1 * b0 - bb
        return _reduced(acc, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * to_cyc(other).inverse()
        if isinstance(other, RingElem):
            if len(other.nums) != 1:
                raise ValueError("ring division only by monomials")
            ((l, x, e), c), = other.terms.items()
            if x != 0:
                raise ValueError("X is not invertible in the ring")
            shifted = {(l1 - l, x1, e1 - e): pair for (l1, x1, e1), pair in self.nums.items()}
            return _scaled(shifted, self.den, c.inverse())
        return NotImplemented

    def scale(self, s) -> "RingElem":
        return self * s

    def conjugate(self) -> "RingElem":
        """zeta -> zeta^2 on every coefficient; L, X and c are fixed."""
        # (n0 + n1 z) -> (n0 - n1) - n1 z keeps the gcd of the numerators.
        return _ring({key: (n0 - n1, -n1) for key, (n0, n1) in self.nums.items()}, self.den)

    # -- calculus -----------------------------------------------------------

    def derive(self) -> "RingElem":
        """The derivation D, term by term via the Leibniz rule, over 9 * den."""
        acc: dict = {}
        for (l, x, e), (n0, n1) in self.nums.items():
            moves = []
            if l:
                moves += [((l + 3, x, e), 3 * l), ((l, x, e), -3 * l)]
            if x:
                moves += [((l, x + 1, e), -9 * x), ((l + 3, x, e), 9 * x), ((l, x, e), -9 * x),
                          ((l + 3, x - 1, e), 2 * x), ((l, x - 1, e), -2 * x)]
            if e:
                moves.append(((l, x + 1, e), -9 * e))
            for key, k in moves:
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [k * n0, k * n1]
                else:
                    prev[0] += k * n0
                    prev[1] += k * n1
        return _reduced(acc, 9 * self.den)

    def d_dT(self) -> "RingElem":
        """c * D, the derivative with respect to the flat coordinate."""
        return RingElem.c(1) * self.derive()

    def d_da2(self) -> "RingElem":
        """(L^3/3) d/dX, the partial derivative along A2 at fixed L."""
        return _reduced({(l + 3, x - 1, e): (x * n0, x * n1)
                         for (l, x, e), (n0, n1) in self.nums.items() if x}, 3 * self.den)

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, l_value, x_value, c_value=1) -> CycScalar:
        """Numeric evaluation at given values of L, X and c."""
        lv, xv, cv = to_cyc(l_value), to_cyc(x_value), to_cyc(c_value)
        total = ZERO
        for (l, x, e), coeff in self.terms.items():
            term = coeff * lv**l * xv**x * cv**e
            total = total + term
        return total

    # -- substitution ----------------------------------------------------------

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
        if not self.nums:
            return "0"
        terms = self.terms
        parts = []
        for (l, x, e) in sorted(self.nums):
            factors = [f"({terms[(l, x, e)]})"]
            if l:
                factors.append(f"L^{l}" if l != 1 else "L")
            if x:
                factors.append(f"X^{x}" if x != 1 else "X")
            if e:
                factors.append(f"c^{e}" if e != 1 else "c")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self, x_name: str = "X") -> list[dict]:
        """The terms in exponent order; x_name keys the X-exponent ("A2" for
        an element from to_a2_form)."""
        terms = self.terms
        return [{"L": l, x_name: x, "c": e, "coeff": terms[(l, x, e)].to_json()}
                for (l, x, e) in sorted(self.nums)]

    @classmethod
    def from_json(cls, data: list[dict]) -> "RingElem":
        terms = {}
        for item in data:
            coeff = CycScalar(
                Fraction(item["coeff"]["a"]), Fraction(item["coeff"]["b"])
            )
            terms[(item["L"], item["X"], item["c"])] = coeff
        return cls(terms)


class Terms(Mapping):
    """Read-only view of a RingElem's coefficients: (l, x, e) -> CycScalar.

    Each read reduces one coefficient; len and iteration only touch the
    keys.  Compares equal to any mapping with equal items.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key) -> CycScalar:
        n0, n1 = self._nums[key]
        return _make(n0, n1, self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self):
        return iter(self._nums)


def _ring(nums: dict, den: int) -> RingElem:
    """A RingElem from nonzero integer pairs over den, already in canonical form."""
    out = object.__new__(RingElem)
    out.den = den
    out.nums = nums
    return out


def _scaled(nums: dict, den: int, s: CycScalar) -> RingElem:
    """The element with pairs nums over den, times the scalar s."""
    b0, b1 = s.n0, s.n1
    return _reduced({key: (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 - a1 * b1)
                     for key, (a0, a1) in nums.items()}, den * s.d)


def _reduced(acc: dict, den: int) -> RingElem:
    """The element with pairs acc over den, zero pairs dropped, in canonical form.

    One running gcd over den and every numerator, no longer updated once it
    reaches 1, divides the whole element once.
    """
    nums = {}
    g = den
    for key, (n0, n1) in acc.items():
        if n0 or n1:
            nums[key] = (n0, n1)
            if g != 1:
                g = gcd(g, n0, n1)
    if g != 1:  # also when nums is empty: zero has den == 1
        nums = {key: (n0 // g, n1 // g) for key, (n0, n1) in nums.items()}
        den //= g
    return _ring(nums, den)
