"""Fixed-point restrictions of the hypergeometric solution, their differential
equation check, the Birkhoff normalization chain and the mirror map.

Everything here is derived from one exact object per fixed point: the
per-q-degree rational function of z built by build_ibar.  The z -> 0 frame
feeds the asymptotics module; the z -> infinity (u = 1/z) frame produces the
normalization constants by repeated application of M = w_i + z D and division
by the constant row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import ONE, ZERO, ConsistencyError, CycScalar, weight
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
    "c1_closed_form",
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
    """M = w + z*(q d/dq) in the z -> 0 frame: (Mf)[d, m] = w f[d, m] + d f[d, m-1]."""
    out = {key: w * c for key, c in f.entries.items()}
    for (d, m), c in f.entries.items():
        if d == 0:
            continue
        key = (d, m + 1)
        if m + 1 + d > f.zcap:
            continue
        add = CycScalar(d) * c
        prev = out.get(key)
        out[key] = add if prev is None else prev + add
    return QZSeries(out, f.qmax, f.zcap)


def apply_m_u(f: QZSeries, w: CycScalar) -> QZSeries:
    """M in the u = 1/z frame: (Mf)[d, k] = w f[d, k] + d f[d, k+1].

    Consumes one order of u-validity.  Requires the u^0 coefficient to vanish
    in every positive q-degree, otherwise 1/u would create a pole.
    """
    out = {}
    for (d, k), c in f.entries.items():
        if k == 0 and d >= 1:
            raise ConsistencyError(
                f"u-frame M applied to a series with nonzero u^0 row at q^{d}"
            )
        out[(d, k)] = w * c
    for (d, k), c in f.entries.items():
        if d == 0 or k == 0:
            continue
        key = (d, k - 1)
        add = CycScalar(d) * c
        prev = out.get(key)
        out[key] = add if prev is None else prev + add
    return QZSeries(out, f.qmax, f.zcap - 1)


def verify_pf(i: int, qmax: int, zmax: int, include_correction: bool = True) -> QZSeries:
    """Residual of the degree-3 differential identity on the restriction at i.

    Applies M^3 - w^3 + 3q M (3M + z)(3M + 2z) to the z -> 0 expansion and
    returns the residual, which must vanish identically.  Passing
    include_correction=False drops the 3q term (negative control).  Needs
    qmax >= 1 and zmax >= 0: below that the residual is empty or never meets
    the 3q term.
    """
    if qmax < 1 or zmax < 0:
        raise ValueError(f"verify_pf needs qmax >= 1 and zmax >= 0, got {qmax} and {zmax}")
    w = weight(i)
    zcap = qmax + zmax
    f = build_ibar(i, qmax).expand_at_zero(zcap)
    mf = apply_m(f, w)
    m2f = apply_m(mf, w)
    m3f = apply_m(m2f, w)
    residual = m3f - f.scale(w**3)
    if include_correction:
        h1 = mf.scale(3) + f.mul_z_power(1).scale(2)
        h2 = apply_m(h1, w).scale(3) + h1.mul_z_power(1)
        h3 = apply_m(h2, w)
        residual = residual + h3.shift_q(1, CycScalar(3))
    return residual


def c1_closed_form(qmax: int) -> QSeries:
    """1 + 3 sum_d d (-1)^d (3d-1)!/(d!)^3 q^d."""
    import math

    coeffs = [Fraction(1)]
    for d in range(1, qmax + 1):
        coeffs.append(
            Fraction(3 * d * (-1) ** d * math.factorial(3 * d - 1), math.factorial(d) ** 3)
        )
    return QSeries(coeffs, qmax)


def birkhoff_normalizations(qmax: int, i: int = 0) -> tuple[QSeries, QSeries, QSeries]:
    """The constants (C0, C1, C2) from the normalization chain at fixed point i.

    C1 is the u^0 row of M applied to the restriction, C2 the u^0 row after
    normalizing and applying M again, C0 after one more round.  The function
    asserts the limit-based C1, the closed form, C0 = C1 and the product
    relation C0 C1 C2 (1 + 27q) = 1; any failure is fatal.
    """
    w = weight(i)
    ratfun = build_ibar(i, qmax)
    ucap = qmax + 3
    ibar_u = ratfun.expand_at_infinity(ucap)

    m1 = apply_m_u(ibar_u, w)
    c1 = m1.z_coefficient(0).truncate(qmax)
    sbar_h = m1.div_qseries(c1)
    m2 = apply_m_u(sbar_h, w)
    c2 = m2.z_coefficient(0).truncate(qmax)
    sbar_h2 = m2.div_qseries(c2)
    m3 = apply_m_u(sbar_h2, w)
    c0 = m3.z_coefficient(0).truncate(qmax)

    limit_c1 = ratfun.with_extra_numerator_factor(
        lambda d: (w, CycScalar(d))
    ).limit_at_infinity()
    if limit_c1 != c1:
        raise ConsistencyError("limit-based C1 disagrees with the chain value")
    if i == 0 and c1 != c1_closed_form(qmax):
        raise ConsistencyError("C1 disagrees with its closed form")
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
    _pow_cache: dict = field(default_factory=dict, repr=False)


def mirror_data(qmax: int) -> MirrorData:
    """Build and cross-check the full mirror package at truncation qmax."""
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
