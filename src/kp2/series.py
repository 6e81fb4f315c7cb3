"""Truncated power series in q, and per-q-order Laurent data in a second variable.

Three layers, each with one product:

* QSeries: plain truncated series in q with CycScalar coefficients.  Its
  product and inverse are the one truncated power-series algorithm here;
  RatFunZ uses them for polynomials in z and in u = 1/z as well.
* RatFunZ: the exact per-q-degree rational function of z, stored as factor
  lists of degree-at-most-1 polynomials.  Both expansion frames (around z = 0
  and around z = infinity) are derived from this single exact object.
* QZSeries: a two-variable truncation, entries (q-degree d, z-exponent m).
  The q-degree-d entry may have a pole in z of order at most d.  Validity is
  tracked on the anti-diagonal: an entry (d, m) is trusted iff m + d <= zcap.
  That convention makes multiplication lossless: if both factors respect the
  pole bound and are valid to zcap, so is their product.  A series in q
  alone, or a monomial such as z or 3q, enters a product through
  QZSeries.lift.  The 1/z Taylor frame needs no such container: each q-degree
  is a polynomial in u = 1/z, so expand_at_infinity returns the q-series of
  its first u-coefficients, each exact to qmax.

Only this module and kp2.mirror know the zcap arithmetic; the ring and the
graph sums never see a q-series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, ConsistencyError, CycScalar, to_cyc

__all__ = ["QSeries", "QZSeries", "RatFunZ", "qs_exp", "qs_log"]


class QSeries:
    """Truncated power series sum_{d=0}^{qmax} coeffs[d] q^d."""

    __slots__ = ("coeffs", "qmax")

    def __init__(self, coeffs: Sequence, qmax: int | None = None):
        coeffs = [to_cyc(c) for c in coeffs]
        if qmax is None:
            qmax = len(coeffs) - 1
        if qmax < 0:
            raise ValueError("qmax must be nonnegative")
        if len(coeffs) < qmax + 1:
            coeffs = coeffs + [ZERO] * (qmax + 1 - len(coeffs))
        self.coeffs = tuple(coeffs[: qmax + 1])
        self.qmax = qmax

    @classmethod
    def constant(cls, value, qmax: int) -> "QSeries":
        return cls([to_cyc(value)], qmax)

    @classmethod
    def zero(cls, qmax: int) -> "QSeries":
        return cls.constant(0, qmax)

    @classmethod
    def one(cls, qmax: int) -> "QSeries":
        return cls.constant(1, qmax)

    def __getitem__(self, d: int) -> CycScalar:
        if d < 0:
            return ZERO
        if d > self.qmax:
            raise IndexError(f"coefficient q^{d} beyond truncation {self.qmax}")
        return self.coeffs[d]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.qmax, other.qmax)
        return all(self.coeffs[d] == other.coeffs[d] for d in range(n + 1))

    # equality ignores the coefficients beyond the shorter truncation, which
    # no hash can respect
    __hash__ = None

    def _binop(self, other, f):
        if isinstance(other, (int, Fraction, CycScalar)):
            other = QSeries.constant(other, self.qmax)
        if not isinstance(other, QSeries):
            return None
        n = min(self.qmax, other.qmax)
        return QSeries([f(self.coeffs[d], other.coeffs[d]) for d in range(n + 1)], n)

    def __add__(self, other):
        out = self._binop(other, lambda x, y: x + y)
        return NotImplemented if out is None else out

    __radd__ = __add__

    def __sub__(self, other):
        out = self._binop(other, lambda x, y: x - y)
        return NotImplemented if out is None else out

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.qmax)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            s = to_cyc(other)
            return QSeries([c * s for c in self.coeffs], self.qmax)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.qmax, other.qmax)
        out = [ZERO] * (n + 1)
        right = [(d2, c2) for d2, c2 in enumerate(other.coeffs[: n + 1]) if not c2.is_zero()]
        for d1, c1 in enumerate(self.coeffs[: n + 1]):
            if c1.is_zero():
                continue
            for d2, c2 in right:
                if d1 + d2 > n:
                    break
                out[d1 + d2] = out[d1 + d2] + c1 * c2
        return QSeries(out, n)

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("inverse of a series with zero constant term")
        inv0 = c0.inverse()
        out = [inv0]
        for d in range(1, self.qmax + 1):
            acc = ZERO
            for k in range(1, d + 1):
                ck = self.coeffs[k] if k <= self.qmax else ZERO
                if not ck.is_zero():
                    acc = acc + ck * out[d - k]
            out.append(-inv0 * acc)
        return QSeries(out, self.qmax)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * to_cyc(other).inverse()
        if isinstance(other, QSeries):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QSeries.one(self.qmax)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def d_logq(self) -> "QSeries":
        """The derivation q d/dq."""
        return QSeries([CycScalar(d) * c for d, c in enumerate(self.coeffs)], self.qmax)

    def integrate_logq(self) -> "QSeries":
        """Inverse of q d/dq with constant term 0; requires a zero constant term."""
        if not self.coeffs[0].is_zero():
            raise ValueError("cannot integrate a nonzero constant against dq/q")
        return QSeries(
            [ZERO] + [self.coeffs[d] / d for d in range(1, self.qmax + 1)], self.qmax
        )

    def to_json(self) -> list[str]:
        from .scalars import rat_str

        return [rat_str(c.as_rational()) for c in self.coeffs]

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        return f"QSeries([{head}, ...], qmax={self.qmax})"


def qs_exp(x: QSeries) -> QSeries:
    """exp of a series with zero constant term, exact to truncation.

    Uses the first-order relation n e_n = sum_k (k x_k) e_{n-k}.
    """
    if not x.coeffs[0].is_zero():
        raise ValueError("qs_exp requires a zero constant term")
    out = [ONE]
    for n in range(1, x.qmax + 1):
        acc = ZERO
        for k in range(1, n + 1):
            xk = x.coeffs[k]
            if not xk.is_zero():
                acc = acc + CycScalar(k) * xk * out[n - k]
        out.append(acc / n)
    return QSeries(out, x.qmax)


def qs_log(x: QSeries) -> QSeries:
    """log of a series with constant term 1, exact to truncation."""
    if x.coeffs[0] != ONE:
        raise ValueError("qs_log requires constant term 1")
    dlog = x.d_logq() / x
    return dlog.integrate_logq()


class QZSeries:
    """Entries (q-degree d, z-exponent m) -> CycScalar with poles bounded by m >= -d.

    An entry (d, m) is stored only when trusted, i.e. m + d <= zcap, and only
    when nonzero.  qmax bounds the q-direction.
    """

    __slots__ = ("entries", "qmax", "zcap")

    def __init__(self, entries: dict, qmax: int, zcap: int):
        self.qmax = qmax
        self.zcap = zcap
        clean = {}
        for (d, m), c in entries.items():
            c = to_cyc(c)
            if c.is_zero():
                continue
            if d < 0 or d > qmax:
                continue
            if m < -d:
                raise ConsistencyError(
                    f"pole bound violated: entry at q^{d} z^{m} deeper than z^{-d}"
                )
            if m + d > zcap:
                continue
            clean[(d, m)] = c
        self.entries = clean

    @classmethod
    def lift(cls, s: QSeries, zcap: int, m: int = 0) -> "QZSeries":
        """s * z^m as a two-variable series, so that it multiplies like one."""
        return cls({(d, m): c for d, c in enumerate(s.coeffs)}, s.qmax, zcap)

    def get(self, d: int, m: int) -> CycScalar:
        return self.entries.get((d, m), ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, QZSeries):
            return NotImplemented
        qmax = min(self.qmax, other.qmax)
        zcap = min(self.zcap, other.zcap)
        keys = set(self.entries) | set(other.entries)
        for (d, m) in keys:
            if d > qmax or m + d > zcap:
                continue
            if self.get(d, m) != other.get(d, m):
                return False
        return True

    __hash__ = None

    def _binop(self, other, f):
        qmax = min(self.qmax, other.qmax)
        zcap = min(self.zcap, other.zcap)
        out = {}
        for key in set(self.entries) | set(other.entries):
            d, m = key
            out[key] = f(self.get(d, m), other.get(d, m))
        return QZSeries(out, qmax, zcap)

    def __add__(self, other):
        if not isinstance(other, QZSeries):
            return NotImplemented
        return self._binop(other, lambda x, y: x + y)

    def __sub__(self, other):
        if not isinstance(other, QZSeries):
            return NotImplemented
        return self._binop(other, lambda x, y: x - y)

    def __neg__(self):
        return QZSeries({k: -c for k, c in self.entries.items()}, self.qmax, self.zcap)

    def scale(self, s) -> "QZSeries":
        s = to_cyc(s)
        return QZSeries({k: c * s for k, c in self.entries.items()}, self.qmax, self.zcap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.scale(other)
        if not isinstance(other, QZSeries):
            return NotImplemented
        qmax = min(self.qmax, other.qmax)
        zcap = min(self.zcap, other.zcap)
        out: dict = {}
        for (d1, m1), c1 in self.entries.items():
            if d1 > qmax:
                continue
            for (d2, m2), c2 in other.entries.items():
                d = d1 + d2
                if d > qmax:
                    continue
                m = m1 + m2
                if m + d > zcap:
                    continue
                key = (d, m)
                prev = out.get(key)
                prod = c1 * c2
                out[key] = prod if prev is None else prev + prod
        return QZSeries(out, qmax, zcap)

    __rmul__ = __mul__

    def z_coefficient(self, m: int) -> QSeries:
        """The z^m row as a QSeries, valid to min(qmax, zcap - m)."""
        qmax = min(self.qmax, self.zcap - m)
        if qmax < 0:
            raise ValueError(f"z^{m} row not valid at any q-order (zcap={self.zcap})")
        return QSeries([self.get(d, m) for d in range(qmax + 1)], qmax)

    def pole_rows(self) -> Iterable[tuple[int, QSeries]]:
        depths = sorted({m for (_, m) in self.entries if m < 0})
        for m in depths:
            yield m, self.z_coefficient(m)

    @classmethod
    def exp_pole(cls, exponent_over_z: QSeries, qmax: int, zcap: int) -> "QZSeries":
        """exp(s/z) for a q-series s with zero constant term, as a QZSeries.

        The k-th term s^k/(k! z^k) has q-order >= k, so the sum terminates.
        """
        if not exponent_over_z.coeffs[0].is_zero():
            raise ValueError("exp_pole requires a zero constant term")
        out = {(0, 0): ONE}
        power = QSeries.one(min(qmax, exponent_over_z.qmax))
        fact = Fraction(1)
        for k in range(1, qmax + 1):
            power = power * exponent_over_z
            fact *= k
            inv = Fraction(1) / fact
            for d in range(k, power.qmax + 1):
                c = power.coeffs[d]
                if c.is_zero():
                    continue
                if d > qmax or (-k) + d > zcap:
                    continue
                out[(d, -k)] = c * inv
        return cls(out, qmax, zcap)

    def __repr__(self):
        return f"QZSeries({len(self.entries)} entries, qmax={self.qmax}, zcap={self.zcap})"


def _product(factors, order: int) -> QSeries:
    """The product of the linear factors a + b*t, truncated at t^order."""
    out = QSeries.one(order)
    for (a, b) in factors:
        out = out * QSeries([a, b], order)
    return out


class RatFunZ:
    """Per q-degree d, an exact rational function of z given by factor lists.

    factors are pairs (a, b) standing for a + b*z.  numerators[d] and
    denominators[d] hold the degree-d factor multisets.
    """

    __slots__ = ("numerators", "denominators", "qmax")

    def __init__(self, numerators, denominators, qmax: int):
        self.numerators = [[(to_cyc(a), to_cyc(b)) for (a, b) in fl] for fl in numerators]
        self.denominators = [[(to_cyc(a), to_cyc(b)) for (a, b) in fl] for fl in denominators]
        self.qmax = qmax
        if len(self.numerators) != qmax + 1 or len(self.denominators) != qmax + 1:
            raise ValueError("factor lists must cover q-degrees 0..qmax")

    def _split_z_factors(self, d: int):
        """Separate exact z factors from z-regular factors of the degree-d denominator."""
        zpow = 0
        rest = []
        for (a, b) in self.denominators[d]:
            if a.is_zero():
                if b.is_zero():
                    raise ZeroDivisionError("zero factor in denominator")
                zpow += 1
                rest.append((b, ZERO))  # b*z = z * (b)
            else:
                rest.append((a, b))
        return zpow, rest

    def expand_at_zero(self, zcap: int) -> QZSeries:
        """Laurent expansion around z = 0; degree-d entry starts at z^{-pole}."""
        entries: dict = {}
        for d in range(self.qmax + 1):
            zpow, den_rest = self._split_z_factors(d)
            # need num * inv(den_rest) to z-order (zcap - d) + zpow
            order = zcap - d + zpow
            if order < 0:
                continue
            num = _product(self.numerators[d], order)
            series = num * _product(den_rest, order).inverse()
            for k, c in enumerate(series.coeffs):
                m = k - zpow
                if not c.is_zero() and m + d <= zcap:
                    entries[(d, m)] = c
        return QZSeries(entries, self.qmax, zcap)

    def _reversed_polys(self, d: int, order: int):
        """Reversed numerator and denominator in u = 1/z, plus the u-power shift.

        Returns (shift, num_rev, den_rev) with f_d(u) = u^shift * num_rev/den_rev,
        both truncated at u^order, and den_rev(0) != 0.
        """
        def rev(factors):
            # a + b z = (b + a u) / u; a constant factor stays as it is
            flipped = [(b, a) if not b.is_zero() else (a, b) for (a, b) in factors]
            degree = sum(not b.is_zero() for (_, b) in factors)
            return _product(flipped, order), degree

        num_rev, ndeg = rev(self.numerators[d])
        den_rev, ddeg = rev(self.denominators[d])
        if den_rev[0].is_zero():
            raise ZeroDivisionError("denominator has a factor vanishing at z=infinity")
        return ddeg - ndeg, num_rev, den_rev

    def expand_at_infinity(self, kmax: int) -> list[QSeries]:
        """Taylor expansion in u = 1/z through u^kmax: the q-series of the u^k
        coefficient for k = 0..kmax, each exact to qmax."""
        rows = [[ZERO] * (self.qmax + 1) for _ in range(kmax + 1)]
        for d in range(self.qmax + 1):
            shift, num_rev, den_rev = self._reversed_polys(d, kmax)
            if shift < 0:
                raise ValueError(f"q^{d} term diverges at z=infinity")
            series = num_rev * den_rev.inverse()
            for k in range(kmax + 1 - shift):
                rows[k + shift][d] = series[k]
        return [QSeries(row, self.qmax) for row in rows]
