"""Every q-expansion in kp2: the fixed-point restrictions of the hypergeometric
solution, the checks made on them, and the q-series of L, X and c.

Everything here is derived from one exact object per fixed point: the
per-q-degree rational function of z built by build_ibar.

* verify_pf applies the degree-3 differential operator to the z -> 0 frame,
  a QZSeries on whose row d the operator M = w_i + z D is w_i + d z.
* birkhoff_normalizations runs the z -> infinity (u = 1/z) frame through
  M = w_i + z D and division by the constant row, reads C1, C2 and C0, and
  checks C0 = C1 and C0 C1 C2 (1 + 27q) = 1.
* mirror_data adds the mirror map and L, X, c, and makes the one
  closed-form check of C1: C1 = 1 + D(T - log q).
* MirrorData.eval_q sends ring elements to q-series; verify_drule checks
  the derivation of X on them.
* expand_rows expands the normalized rows at z -> 0.  The exponent mu comes
  from 1 + D mu = L, and the check that can fail is that exp(-mu w_i / z)
  clears every pole; check_rows compares the rows with the ring rows of
  kp2.rseries.

The ring and graph-sum modules never import this one; it serves the
mirror, verify pf and verify lemmaR commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lring import RingElem
from .scalars import ONE, ConsistencyError, CycScalar, weight, weight_pow
from .series import QSeries, QZSeries, RatFunZ, qs_exp, qs_log

__all__ = [
    "MirrorData",
    "build_ibar",
    "apply_m",
    "apply_m_u",
    "verify_pf",
    "birkhoff_normalizations",
    "mirror_map",
    "mirror_data",
    "expand_rows",
    "check_rows",
]


def build_ibar(i: int, qmax: int) -> RatFunZ:
    """The restriction to fixed point i, as exact factor lists per q-degree.

    Degree d: numerator (-3w - kz) for 0 <= k <= 3d-1, denominator
    (w - w_j + kz) for all j and 1 <= k <= d.  The j = i factors contribute
    the tracked z^d pole.
    """
    w = weight(i)
    m3w = CycScalar(-3) * w
    nums, dens = [], []
    for d in range(qmax + 1):
        nums.append([(m3w, CycScalar(-k)) for k in range(3 * d)])
        dens.append(
            [
                (w - weight(j), CycScalar(k))
                for j in range(3)
                for k in range(1, d + 1)
            ]
        )
    return RatFunZ(nums, dens, qmax)


def apply_m(f: QZSeries, w: CycScalar) -> QZSeries:
    """M = w + z*(q d/dq) in the z -> 0 frame: row d times (w + d z)."""
    return QZSeries(row * QSeries([w, d], f.zcap) for d, row in enumerate(f.rows))


def apply_m_u(rows: list[QSeries], w: CycScalar) -> list[QSeries]:
    """M in the u = 1/z frame, on the q-series rows of u^0, u^1, ...:
    (Mf)_k = w f_k + (q d/dq) f_{k+1}.

    Consumes the last row.  Requires the u^0 row to vanish in every positive
    q-degree, otherwise 1/u would create a pole.
    """
    for d in range(1, rows[0].qmax + 1):
        if not rows[0][d].is_zero():
            raise ConsistencyError(
                f"u-frame M applied to a series with nonzero u^0 row at q^{d}"
            )
    return [rows[k] * w + rows[k + 1].d_logq() for k in range(len(rows) - 1)]


def verify_pf(i: int, qmax: int, zmax: int) -> QZSeries:
    """Residual of the degree-3 differential identity on the restriction at i.

    Applies M^3 - w^3 + 3q M (3M + z)(3M + 2z) to the z -> 0 expansion and
    returns the residual, which must vanish identically.  Needs qmax >= 1
    and zmax >= 0: below that the residual is empty or never meets the 3q
    term.
    """
    if qmax < 1 or zmax < 0:
        raise ValueError(f"verify_pf needs qmax >= 1 and zmax >= 0, got {qmax} and {zmax}")
    w = weight(i)
    zcap = qmax + zmax
    f = build_ibar(i, qmax).expand_at_zero(zcap)
    mf = apply_m(f, w)
    m3f = apply_m(apply_m(mf, w), w)
    z = QZSeries.lift(QSeries.one(qmax), zcap, 1)
    h1 = mf * 3 + f * z * 2
    h2 = apply_m(h1, w) * 3 + h1 * z
    h3 = apply_m(h2, w)
    return m3f - f * w**3 + h3 * QZSeries.lift(QSeries([0, 3], qmax), zcap)


def birkhoff_normalizations(qmax: int, i: int = 0) -> tuple[QSeries, QSeries, QSeries]:
    """The constants (C0, C1, C2) from the normalization chain at fixed point i.

    C1 is the u^0 row of M applied to the restriction, C2 the u^0 row after
    normalizing and applying M again, C0 after one more round.  The function
    asserts C0 = C1 and the product relation C0 C1 C2 (1 + 27q) = 1; any
    failure is fatal.  A wrong u-entry that the chain reads breaks C0 = C1.
    Each application of M reads one more u-row, so the chain expands the
    restriction only through u^3.
    """
    w = weight(i)
    rows = build_ibar(i, qmax).expand_at_infinity(3)

    m1 = apply_m_u(rows, w)
    c1 = m1[0]
    inv = c1.inverse()
    m2 = apply_m_u([row * inv for row in m1], w)
    c2 = m2[0]
    inv = c2.inverse()
    m3 = apply_m_u([row * inv for row in m2], w)
    c0 = m3[0]

    if c0 != c1:
        raise ConsistencyError("C0 = C1 failed")
    one_plus = QSeries([ONE, CycScalar(27)], qmax)
    if c0 * c1 * c2 * one_plus != QSeries.one(qmax):
        raise ConsistencyError("C0 C1 C2 (1+27q) = 1 failed")
    return c0, c1, c2


def mirror_map(qmax: int) -> tuple[QSeries, QSeries]:
    """(T - log q, Q(q)/q).

    T - log q = 3 sum_d (-q)^d (3d-1)!/(d!)^3 and Q/q is its exponential.
    """
    import math

    coeffs = [Fraction(0)]
    for d in range(1, qmax + 1):
        coeffs.append(Fraction(3 * (-1) ** d * math.factorial(3 * d - 1), math.factorial(d) ** 3))
    t_minus_logq = QSeries(coeffs, qmax)
    return t_minus_logq, qs_exp(t_minus_logq)


@dataclass
class MirrorData:
    """Everything the downstream ring evaluation and asymptotics need."""

    qmax: int
    ibar: list  # RatFunZ per fixed point
    C0: QSeries
    C1: QSeries
    C2: QSeries
    T_minus_logq: QSeries
    Qofq: QSeries
    L: QSeries
    X: QSeries
    c: QSeries  # 1/C1
    _pow_cache: dict = field(default_factory=dict, repr=False, init=False)

    def eval_q(self, elem: RingElem) -> QSeries:
        """Substitute the q-expansions of L, X and c into elem; D turns into q d/dq."""
        out = QSeries.zero(self.qmax)
        for (l, x, e), coeff in elem.terms.items():
            term = self._power("L", l)
            if x:
                term = term * self._power("X", x)
            if e:
                term = term * self._power("c", e)
            out = out + term * coeff
        return out

    def _power(self, name: str, k: int) -> QSeries:
        """The k-th power of the series of generator name, memoized."""
        key = (name, k)
        hit = self._pow_cache.get(key)
        if hit is None:
            hit = {"L": self.L, "X": self.X, "c": self.c}[name] ** k
            self._pow_cache[key] = hit
        return hit

    def verify_drule(self) -> None:
        """Check the X derivation rule both as a ring identity and on q-expansions."""
        x = RingElem.X()
        l3_minus_1 = RingElem.L(3) - RingElem.one()
        rule = -(x * x) + l3_minus_1 * x + l3_minus_1 * Fraction(2, 9)
        if x.derive() != rule:
            raise ConsistencyError("ring derivation of X disagrees with its defining rule")
        if self.X.d_logq() != self.eval_q(rule):
            raise ConsistencyError("q-expansion of X does not satisfy the derivation rule")


def mirror_data(qmax: int) -> MirrorData:
    """Build and cross-check the full mirror package at truncation qmax.

    C1 = 1 + D(T - log q) ties the normalization chain to the mirror map, and
    C1^2 C2 = L^3 ties it to L.
    """
    if qmax < 0:
        raise ValueError(f"qmax must be non-negative, got {qmax}")
    c0, c1, c2 = birkhoff_normalizations(qmax)
    t_minus_logq, qofq = mirror_map(qmax)
    if t_minus_logq.d_logq() + QSeries.one(qmax) != c1:
        raise ConsistencyError("q d/dq (T - log q) + 1 = C1 failed")
    one_plus = QSeries([ONE, CycScalar(27)], qmax)
    lser = qs_exp(qs_log(one_plus) * Fraction(-1, 3))
    xser = c1.d_logq() / c1
    cser = c1.inverse()
    if c1 * c1 * c2 != lser ** 3:
        raise ConsistencyError("C1^2 C2 = L^3 failed")
    return MirrorData(
        qmax=qmax,
        ibar=[build_ibar(i, qmax) for i in range(3)],
        C0=c0,
        C1=c1,
        C2=c2,
        T_minus_logq=t_minus_logq,
        Qofq=qofq,
        L=lser,
        X=xser,
        c=cser,
    )


def expand_rows(mirror: MirrorData, kmax: int, i: int = 0):
    """(mu, rows_q): the exact z-expansion of the normalized rows at fixed point i.

    rows_q[(m, k)] is the q-expansion of R_{m,k}, already rescaled by w^k so
    it is the same at every fixed point.  mu solves 1 + D mu = L; the check
    here that can fail is that exp(-mu w_i / z) clears every z-pole of every
    normalized row.  Requires mirror.qmax >= 2*kmax + 2, so that the q-orders
    pin every row in its L-window [-m, 2k] (plus the X part of row 2) exactly.
    """
    qmax = mirror.qmax
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    if qmax < 2 * kmax + 2:
        raise ValueError(f"qmax={qmax} too small for kmax={kmax}; need at least {2 * kmax + 2}")
    w = weight(i)
    zcap = kmax + qmax
    mu = (mirror.L - 1).integrate_logq()

    sbar = [mirror.ibar[i].expand_at_zero(zcap)]
    sbar.append(apply_m(sbar[0], w) * QZSeries.lift(mirror.C1.inverse(), zcap))
    sbar.append(apply_m(sbar[1], w) * QZSeries.lift(mirror.C2.inverse(), zcap))
    expfac = QZSeries.exp_pole(-(mu * w), qmax, zcap)
    prefac = [
        QSeries.one(qmax),
        mirror.L * mirror.c * w,
        (mirror.C1 / mirror.L) * w**2,
    ]

    rows_q: dict[tuple[int, int], QSeries] = {}
    for m in range(3):
        hat = expfac * sbar[m]
        for depth in range(-qmax, 0):
            if not hat.z_coefficient(depth).is_zero():
                raise ConsistencyError(
                    f"normalized row {m} keeps a z^{depth} pole at fixed point {i}"
                )
        hat = hat * QZSeries.lift(prefac[m].inverse(), zcap)
        for k in range(kmax + 1):
            rows_q[(m, k)] = hat.z_coefficient(k) * weight_pow(i, k)
    return mu, rows_q


def check_rows(mirror: MirrorData, rows: dict[int, list[RingElem]], i: int = 0):
    """Compare every ring row with its z-expansion at fixed point i.

    Returns (m, k, agrees) for m = 0..2 and k = 0..kmax, kmax = len(rows[0]) - 1.
    """
    kmax = len(rows[0]) - 1
    _, rows_q = expand_rows(mirror, kmax, i)
    return [
        (m, k, mirror.eval_q(rows[m][k]) == rows_q[(m, k)])
        for m in range(3)
        for k in range(kmax + 1)
    ]
