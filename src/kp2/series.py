"""Truncated power series in q, and per-q-order Laurent data in a second variable.

One truncated product, QSeries.__mul__, serves three layers:

* QSeries: plain truncated series in q with CycScalar coefficients.  Its
  product and inverse are the one truncated power-series algorithm here.
* QZSeries: a two-variable truncation stored as rows of QSeries in z.  The
  q-degree-d part may have a pole in z of order at most d; row d holds z^d
  times it, exact through z^zcap, so an entry (d, m) is trusted iff
  m + d <= zcap.  That convention makes multiplication lossless: if both
  factors respect the pole bound and are valid to zcap, so is their product,
  row d = sum_k a.rows[k] * b.rows[d - k].  A series in q alone, or a
  monomial such as z or 3q, enters a product through QZSeries.lift.
* RatFunZ: the exact per-q-degree rational function of z, stored as factor
  lists of degree-at-most-1 polynomials.  Both expansion frames, around
  z = 0 and in u = 1/z around z = infinity, come from this one exact object
  through one Laurent helper.  The u-frame needs no container: each q-degree
  is a polynomial in u, so expand_at_infinity returns the q-series of its
  first u-coefficients, each exact to qmax.

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
        self.coeffs = tuple(coeffs[: qmax + 1]) + (ZERO,) * (qmax + 1 - len(coeffs))
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
            return NotImplemented
        n = min(self.qmax, other.qmax)
        return _qs([f(self.coeffs[d], other.coeffs[d]) for d in range(n + 1)], n)

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _qs([-c for c in self.coeffs], self.qmax)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            s = to_cyc(other)
            return _qs([c * s for c in self.coeffs], self.qmax)
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
                prev = out[d1 + d2]
                out[d1 + d2] = c1 * c2 if prev is ZERO else prev + c1 * c2
        return _qs(out, n)

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
        return _qs(out, self.qmax)

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
        return _qs([CycScalar(d) * c for d, c in enumerate(self.coeffs)], self.qmax)

    def integrate_logq(self) -> "QSeries":
        """Inverse of q d/dq with constant term 0; requires a zero constant term."""
        if not self.coeffs[0].is_zero():
            raise ValueError("cannot integrate a nonzero constant against dq/q")
        return _qs(
            [ZERO] + [self.coeffs[d] / d for d in range(1, self.qmax + 1)], self.qmax
        )

    def to_json(self) -> list[str]:
        from .scalars import rat_str

        return [rat_str(c.as_rational()) for c in self.coeffs]

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        return f"QSeries([{head}, ...], qmax={self.qmax})"


def _qs(coeffs, qmax: int) -> QSeries:
    """A QSeries of CycScalars, padded or cut to qmax, without coercion:
    the results of this module."""
    out = object.__new__(QSeries)
    out.coeffs = tuple(coeffs[: qmax + 1]) + (ZERO,) * (qmax + 1 - len(coeffs))
    out.qmax = qmax
    return out


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
    return _qs(out, x.qmax)


def qs_log(x: QSeries) -> QSeries:
    """log of a series with constant term 1, exact to truncation."""
    if x.coeffs[0] != ONE:
        raise ValueError("qs_log requires constant term 1")
    dlog = x.d_logq() / x
    return dlog.integrate_logq()


class QZSeries:
    """A q-series whose q^d coefficient is a Laurent series in z with pole order at most d.

    rows[d] is the QSeries in z of z^d times the q^d part, exact through
    z^zcap, so entry (d, m) is rows[d][m + d].  The pole bound m >= -d is the
    row's start at z^0, and the anti-diagonal cap m + d <= zcap its
    truncation.  Rows multiply like the coefficients of a series in q.
    """

    __slots__ = ("rows", "qmax", "zcap")

    def __init__(self, rows: Iterable[QSeries]):
        self.rows = tuple(rows)
        self.qmax = len(self.rows) - 1
        self.zcap = self.rows[0].qmax

    @classmethod
    def lift(cls, s: QSeries, zcap: int, m: int = 0) -> "QZSeries":
        """s * z^m as a two-variable series, so that it multiplies like one."""
        return cls(_row(d, m, [c], zcap) for d, c in enumerate(s.coeffs))

    def get(self, d: int, m: int) -> CycScalar:
        if 0 <= d <= self.qmax and m + d <= self.zcap:
            return self.rows[d][m + d]
        return ZERO

    def is_zero(self) -> bool:
        return all(row.is_zero() for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, QZSeries):
            return NotImplemented
        return all(a == b for a, b in zip(self.rows, other.rows))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, QZSeries):
            return NotImplemented
        return QZSeries(a + b for a, b in zip(self.rows, other.rows))

    def __sub__(self, other):
        if not isinstance(other, QZSeries):
            return NotImplemented
        return QZSeries(a - b for a, b in zip(self.rows, other.rows))

    def __neg__(self):
        return QZSeries(-row for row in self.rows)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return QZSeries(row * other for row in self.rows)
        if not isinstance(other, QZSeries):
            return NotImplemented
        a, b = self.rows, other.rows
        return QZSeries(
            sum((a[k] * b[d - k] for k in range(1, d + 1)), a[0] * b[d])
            for d in range(min(len(a), len(b)))
        )

    __rmul__ = __mul__

    def z_coefficient(self, m: int) -> QSeries:
        """The z^m row as a QSeries, valid to min(qmax, zcap - m)."""
        qmax = min(self.qmax, self.zcap - m)
        if qmax < 0:
            raise ValueError(f"z^{m} row not valid at any q-order (zcap={self.zcap})")
        return _qs([self.rows[d][m + d] for d in range(qmax + 1)], qmax)

    @classmethod
    def exp_pole(cls, exponent_over_z: QSeries, qmax: int, zcap: int) -> "QZSeries":
        """exp(s/z) for a q-series s with zero constant term, as a QZSeries.

        The k-th term s^k/(k! z^k) has q-order >= k, so the sum terminates.
        """
        if not exponent_over_z.coeffs[0].is_zero():
            raise ValueError("exp_pole requires a zero constant term")
        qmax = min(qmax, exponent_over_z.qmax)
        terms = [QSeries.one(qmax)]
        for k in range(1, qmax + 1):
            terms.append(terms[-1] * exponent_over_z / k)
        # row d holds the q^d coefficient of the k-th term at z^(d - k)
        return cls(
            _qs([terms[d - j][d] for j in range(d + 1)], zcap) for d in range(qmax + 1)
        )


def _row(d: int, m: int, coeffs, zcap: int) -> QSeries:
    """The q^d row of a QZSeries whose q^d part is sum_k coeffs[k] z^(m + k)."""
    start = m + d
    deep = [m + k for k, c in enumerate(coeffs[: max(-start, 0)]) if not c.is_zero()]
    if deep:
        raise ConsistencyError(
            f"pole bound violated: entry at q^{d} z^{deep[0]} deeper than z^{-d}"
        )
    return _qs([ZERO] * start + list(coeffs[max(-start, 0) :]), zcap)


def _laurent(nums, dens, order: int) -> tuple[int, QSeries]:
    """(shift, s) with prod(nums) / prod(dens) = t^shift * s(t), exact through t^order.

    Factors are pairs (a, b) standing for a + b*t; one with a = 0 is b*t and
    adds its t to the shift.  s is truncated at t^max(order - shift, 0).
    """
    shift = sum(a.is_zero() for a, _ in nums) - sum(a.is_zero() for a, _ in dens)
    n = max(order - shift, 0)
    num, den = QSeries.one(n), QSeries.one(n)
    for a, b in nums:
        num = num * _qs([b] if a.is_zero() else [a, b], n)
    for a, b in dens:
        den = den * _qs([b] if a.is_zero() else [a, b], n)
    return shift, num * den.inverse()


class RatFunZ:
    """Per q-degree d, an exact rational function of z given by factor lists.

    factors are pairs (a, b) standing for a + b*z.  numerators[d] and
    denominators[d] hold the degree-d factor multisets.  Both frames expand
    through _laurent: around z = infinity each factor is flipped,
    a + b*z = u^-1 (b + a*u) with u = 1/z.
    """

    __slots__ = ("numerators", "denominators", "qmax")

    def __init__(self, numerators, denominators, qmax: int):
        self.numerators = [[(to_cyc(a), to_cyc(b)) for (a, b) in fl] for fl in numerators]
        self.denominators = [[(to_cyc(a), to_cyc(b)) for (a, b) in fl] for fl in denominators]
        self.qmax = qmax
        if len(self.numerators) != qmax + 1 or len(self.denominators) != qmax + 1:
            raise ValueError("factor lists must cover q-degrees 0..qmax")

    def expand_at_zero(self, zcap: int) -> QZSeries:
        """Laurent expansion around z = 0; degree-d entry starts at z^{-pole}."""
        rows = []
        for d, (nums, dens) in enumerate(zip(self.numerators, self.denominators)):
            shift, s = _laurent(nums, dens, zcap - d)
            rows.append(_row(d, shift, s.coeffs, zcap))
        return QZSeries(rows)

    def expand_at_infinity(self, kmax: int) -> list[QSeries]:
        """Taylor expansion in u = 1/z through u^kmax: the q-series of the u^k
        coefficient for k = 0..kmax, each exact to qmax."""
        rows = [[ZERO] * (self.qmax + 1) for _ in range(kmax + 1)]
        for d, (nums, dens) in enumerate(zip(self.numerators, self.denominators)):
            flip = len(dens) - len(nums)
            shift, s = _laurent(
                [(b, a) for a, b in nums], [(b, a) for a, b in dens], kmax - flip
            )
            shift += flip
            if shift < 0:
                raise ValueError(f"q^{d} term diverges at z=infinity")
            for k in range(kmax + 1 - shift):
                rows[k + shift][d] = s[k]
        return [_qs(row, self.qmax) for row in rows]
