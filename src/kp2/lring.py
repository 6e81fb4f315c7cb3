"""The differential ring Q(zeta)[L, 1/L][X][c, 1/c] that invariants live in.

Monomials are keyed by integer exponent triples (l, x, e) for L^l X^x c^e
with x >= 0.  The derivation D acts by

    D(L) = (L^4 - L)/3
    D(X) = -X^2 + (L^3 - 1) X + (2/9)(L^3 - 1)
    D(c) = -c X

and evaluation sends L, X, c to their q-expansions, under which D becomes
q d/dq.  The alternate coordinate A2 = (3X + 1 - L^3/2)/L^3 is supported as a
separate polynomial form for degree bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .scalars import ONE, ZERO, ConsistencyError, CycScalar, _make
from .series import QSeries

__all__ = ["RingElem", "A2Form", "verify_drule"]


def _cyc(x) -> CycScalar:
    if isinstance(x, CycScalar):
        return x
    return CycScalar(x)


class RingElem:
    """A Laurent polynomial in L and c, polynomial in X, over Q(zeta).

    terms maps each exponent triple to a nonzero CycScalar.  Products and
    sums lift the coefficients to integer numerators over one common
    denominator, accumulate on integers, and reduce each output term once.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for (l, x, e), coeff in terms.items():
                coeff = _cyc(coeff)
                if coeff.is_zero():
                    continue
                if x < 0:
                    raise ValueError("negative powers of X are not part of the ring")
                clean[(l, x, e)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElem":
        return cls()

    @classmethod
    def one(cls) -> "RingElem":
        return cls({(0, 0, 0): ONE})

    @classmethod
    def const(cls, value) -> "RingElem":
        return cls({(0, 0, 0): _cyc(value)})

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
        return cls({(l, x, e): _cyc(coeff)})

    @staticmethod
    def sum(items) -> "RingElem":
        """The sum of the ring elements in items, accumulated over one denominator."""
        items = list(items)
        den = lcm(*(c.d for item in items for c in item.terms.values()))
        acc: dict = {}
        for item in items:
            for key, c in item.terms.items():
                m = den // c.d
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [c.n0 * m, c.n1 * m]
                else:
                    prev[0] += c.n0 * m
                    prev[1] += c.n1 * m
        return _ring({key: _make(n0, n1, den) for key, (n0, n1) in acc.items() if n0 or n1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = RingElem.const(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def x_degree(self) -> int:
        """Largest X-exponent present (-1 for the zero element)."""
        return max((x for (_, x, _) in self.terms), default=-1)

    def c_degrees(self) -> set[int]:
        return {e for (_, _, e) in self.terms}

    def l_range(self) -> tuple[int, int]:
        """(min, max) L-exponent present; (0, 0) for the zero element."""
        ls = [l for (l, _, _) in self.terms]
        if not ls:
            return (0, 0)
        return (min(ls), max(ls))

    def x_coefficient(self, x: int) -> "RingElem":
        """The coefficient of X^x, as an element with the X-power stripped."""
        return RingElem(
            {(l, 0, e): c for (l, xx, e), c in self.terms.items() if xx == x}
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = RingElem.const(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                c = prev + c
                if c:
                    out[key] = c
                else:
                    del out[key]
        return _ring(out)

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
        return _ring({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            s = _cyc(other)
            if not s:
                return RingElem()
            return _ring({key: c * s for key, c in self.terms.items()})
        if not isinstance(other, RingElem):
            return NotImplemented
        if not self.terms or not other.terms:
            return RingElem()
        d1, lifted1 = _lifted(self.terms)
        d2, lifted2 = _lifted(other.terms)
        acc: dict = {}
        for (l1, x1, e1), a0, a1 in lifted1:
            for (l2, x2, e2), b0, b1 in lifted2:
                # (a0 + a1 z)(b0 + b1 z) with z^2 = -1 - z
                key = (l1 + l2, x1 + x2, e1 + e2)
                bb = a1 * b1
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [a0 * b0 - bb, a0 * b1 + a1 * b0 - bb]
                else:
                    prev[0] += a0 * b0 - bb
                    prev[1] += a0 * b1 + a1 * b0 - bb
        den = d1 * d2
        return _ring({key: _make(n0, n1, den) for key, (n0, n1) in acc.items() if n0 or n1})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * _cyc(other).inverse()
        if isinstance(other, RingElem):
            if len(other.terms) != 1:
                raise ValueError("ring division only by monomials")
            ((l, x, e), c), = other.terms.items()
            if x != 0:
                raise ValueError("X is not invertible in the ring")
            inv = c.inverse()
            return RingElem(
                {(l1 - l, x1, e1 - e): c1 * inv for (l1, x1, e1), c1 in self.terms.items()}
            )
        return NotImplemented

    def scale(self, s) -> "RingElem":
        return self * s

    def conjugate(self) -> "RingElem":
        """zeta -> zeta^2 on every coefficient; L, X and c are fixed."""
        return _ring({key: c.conjugate() for key, c in self.terms.items()})

    def __pow__(self, n: int) -> "RingElem":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only of monomials")
            return (RingElem.one() / self) ** (-n)
        out = RingElem.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus -----------------------------------------------------------

    def derive(self) -> "RingElem":
        """The derivation D, term by term via the Leibniz rule."""
        out: dict = {}

        def put(key, coeff):
            if coeff.is_zero():
                return
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff

        two_ninths = Fraction(2, 9)
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
                t = c * (x * two_ninths)
                put((l + 3, x - 1, e), t)
                put((l, x - 1, e), -t)
            if e:
                put((l, x + 1, e), -c * e)
        return RingElem(out)

    def d_dT(self) -> "RingElem":
        """c * D, the derivative with respect to the flat coordinate."""
        return RingElem.c(1) * self.derive()

    def d_da2(self) -> "RingElem":
        """(L^3/3) d/dX, the partial derivative along A2 at fixed L."""
        out: dict = {}
        for (l, x, e), c in self.terms.items():
            if x == 0:
                continue
            key = (l + 3, x - 1, e)
            add = c * Fraction(x, 3)
            prev = out.get(key)
            out[key] = add if prev is None else prev + add
        return RingElem(out)

    # -- evaluation ----------------------------------------------------------

    def eval_q(self, mirror) -> QSeries:
        """Substitute the q-expansions of L, X and c; D turns into q d/dq."""
        out = QSeries.zero(mirror.qmax)
        for (l, x, e), coeff in self.terms.items():
            term = _gen_power(mirror, "L", l)
            if x:
                term = term * _gen_power(mirror, "X", x)
            if e:
                term = term * _gen_power(mirror, "c", e)
            out = out + term * coeff
        return out

    def eval_at(self, l_value, x_value, c_value=1) -> CycScalar:
        """Numeric evaluation at given values of L, X and c."""
        lv, xv, cv = _cyc(l_value), _cyc(x_value), _cyc(c_value)
        total = ZERO
        for (l, x, e), coeff in self.terms.items():
            term = coeff * lv**l * xv**x * cv**e
            total = total + term
        return total

    # -- A2 coordinate --------------------------------------------------------

    def to_a2_form(self) -> "A2Form":
        """Rewrite via X = (L^3 A2 - 1 + L^3/2)/3."""
        out: dict = {}
        third = Fraction(1, 3)
        half = Fraction(1, 2)
        for (l, x, e), c in self.terms.items():
            base = c * third**x
            for t in range(x + 1):
                for s in range(x - t + 1):
                    coeff = base * (comb(x, t) * comb(x - t, s)) * half**s
                    if (x - t - s) % 2:
                        coeff = -coeff
                    key = (l + 3 * t + 3 * s, t, e)
                    prev = out.get(key)
                    out[key] = coeff if prev is None else prev + coeff
        return A2Form(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (l, x, e) in sorted(self.terms):
            c = self.terms[(l, x, e)]
            factors = [f"({c})"]
            if l:
                factors.append(f"L^{l}" if l != 1 else "L")
            if x:
                factors.append(f"X^{x}" if x != 1 else "X")
            if e:
                factors.append(f"c^{e}" if e != 1 else "c")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        out = []
        for (l, x, e) in sorted(self.terms):
            out.append({"L": l, "X": x, "c": e, "coeff": self.terms[(l, x, e)].to_json()})
        return out

    @classmethod
    def from_json(cls, data: list[dict]) -> "RingElem":
        terms = {}
        for item in data:
            coeff = CycScalar(
                Fraction(item["coeff"]["a"]), Fraction(item["coeff"]["b"])
            )
            terms[(item["L"], item["X"], item["c"])] = coeff
        return cls(terms)


def _ring(terms: dict) -> RingElem:
    """A RingElem from terms already keyed by valid exponents with nonzero CycScalars."""
    out = object.__new__(RingElem)
    out.terms = terms
    return out


def _lifted(terms: dict) -> tuple[int, list]:
    """The lcm D of the coefficient denominators, and (key, n0, n1) over D per term."""
    den = lcm(*(c.d for c in terms.values()))
    return den, [(key, c.n0 * (den // c.d), c.n1 * (den // c.d)) for key, c in terms.items()]


class A2Form:
    """A polynomial in A2 over the L/c Laurent ring; keys are (l, a2deg, e)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _cyc(coeff)
                if not coeff.is_zero():
                    clean[key] = coeff
        self.terms = clean

    def degree_in_a2(self) -> int:
        return max((a for (_, a, _) in self.terms), default=-1)

    def l_range(self) -> tuple[int, int]:
        ls = [l for (l, _, _) in self.terms]
        if not ls:
            return (0, 0)
        return (min(ls), max(ls))

    def a2_coefficient(self, a: int) -> RingElem:
        """The coefficient of A2^a as an X-free ring element."""
        return RingElem(
            {(l, 0, e): c for (l, aa, e), c in self.terms.items() if aa == a}
        )

    def to_x_form(self) -> RingElem:
        """Substitute A2 = (3X + 1 - L^3/2)/L^3 back."""
        out: dict = {}
        half = Fraction(1, 2)
        for (l, a, e), c in self.terms.items():
            for t in range(a + 1):
                base = c * (comb(a, t) * 3**t)
                for s in range(a - t + 1):
                    coeff = base * comb(a - t, s) * half**s
                    if s % 2:
                        coeff = -coeff
                    key = (l - 3 * a + 3 * s, t, e)
                    prev = out.get(key)
                    out[key] = coeff if prev is None else prev + coeff
        return RingElem(out)

    def __eq__(self, other):
        if not isinstance(other, A2Form):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def to_json(self) -> list[dict]:
        out = []
        for (l, a, e) in sorted(self.terms):
            out.append({"L": l, "A2": a, "c": e, "coeff": self.terms[(l, a, e)].to_json()})
        return out


def _gen_power(mirror, name: str, k: int) -> QSeries:
    cache = mirror._pow_cache
    key = (name, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    base = {"L": mirror.L, "X": mirror.X, "c": mirror.c}[name]
    if k >= 0:
        value = base**k
    else:
        if name == "X":
            raise ZeroDivisionError("X has no inverse as a q-series")
        value = base.inverse() ** (-k)
    cache[key] = value
    return value


def verify_drule(mirror) -> None:
    """Check the X derivation rule both as a ring identity and on q-expansions."""
    x = RingElem.X()
    rule = (
        -(x * x)
        + (RingElem.L(3) - RingElem.one()) * x
        + (RingElem.L(3) - RingElem.one()) * Fraction(2, 9)
    )
    if x.derive() != rule:
        raise ConsistencyError("ring derivation of X disagrees with its defining rule")
    lhs = mirror.X.d_logq()
    rhs = rule.eval_q(mirror)
    if lhs != rhs:
        raise ConsistencyError("q-expansion of X does not satisfy the derivation rule")
