"""Asymptotic rows R_{m,k} of the normalized solutions at the fixed points.

The z -> 0 expansion at fixed point i factors as

    Shat_i(H^m) = prefac_m(i) * exp(mu w_i / z) * sum_k R_{m,k} (z/w_i)^k

where mu is a q-series shared by all rows, the prefactors are units, and the
R_{m,k} are elements of the differential ring.  With B = DL/L^2 - X/L the rows
obey

    r1[p+1] = r0[p+1] + D r0[p] / L
    r2[p+1] = r1[p+1] + D r1[p] / L + B r1[p]
    r0[p+1] = r2[p+1] + D r2[p] / L - B r2[p]

and these recursions determine the rows in the ring: extract_R_rows derives
them, solving one linear equation D f = g on Q(zeta)[L, 1/L] per order.

The exact z-expansion of the restricted series is kept as an independent
check: expand_rows computes mu and the q-expansion of every row at a fixed
point, and check_rows compares them with the ring rows.
"""

from __future__ import annotations

from fractions import Fraction

from .lring import RingElem
from .mirror import MirrorData, apply_m
from .scalars import ZERO, ConsistencyError, CycScalar, weight, weight_pow
from .series import QSeries, QZSeries

__all__ = [
    "check_rows",
    "expand_rows",
    "extract_mu",
    "extract_R_rows",
    "solve_linear",
    "verify_lemma_R",
]


def _b_term() -> RingElem:
    """B = DL/L^2 - X/L."""
    L1 = RingElem.L(1)
    return L1.derive() / RingElem.L(2) - RingElem.X() / L1


def solve_linear(rhs: RingElem) -> RingElem:
    """The solution f of the linear equation D f = rhs with f(L=1) = 0.

    Both sides live in Q(zeta)[L, 1/L].  Since D L^e = (e/3)(L^{e+3} - L^e),
    the lowest term of rhs fixes the lowest term of f and the solve is
    triangular.  Raises ConsistencyError when rhs has an X or c term, needs
    log L (an L^0 term left at the bottom), or is outside the image of D
    (f would need an exponent outside [min rhs, max rhs - 3]).
    """
    if any(x or e for (_, x, e) in rhs.terms):
        raise ConsistencyError(f"D f = g has an X or c term on the right: {rhs}")
    top = rhs.l_range()[1]
    rest = {l: c for (l, _, _), c in rhs.terms.items()}
    sol = {}
    while rest:
        low = min(rest)
        if low == 0:
            raise ConsistencyError(f"D f = g needs log L: {rhs}")
        if low > top - 3:
            raise ConsistencyError(f"D f = g has no Laurent solution: {rhs}")
        coeff = rest.pop(low) * Fraction(-3, low)
        sol[(low, 0, 0)] = coeff
        up = rest.get(low + 3, ZERO) - coeff * Fraction(low, 3)
        if up.is_zero():
            rest.pop(low + 3, None)
        else:
            rest[low + 3] = up
    f = RingElem(sol)
    return f - f.eval_at(1, 0)


def extract_R_rows(kmax: int) -> dict[int, list[RingElem]]:
    """The rows R_{m,k}, m = 0..2, k = 0..kmax, derived in the ring.

    With a_p = D r0[p-1]/L and b_p = D r1[p-1]/L + B r1[p-1] the recursions
    give r1[p] = r0[p] + a_p and r2[p] = r1[p] + b_p, and their sum gives
    3 D r0[p] = L B b_p - D(2 a_p + b_p); r0[p] is normalized by r0[p](1) = 0
    because the restriction is 1 at q = 0.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    L1 = RingElem.L(1)
    bterm = _b_term()
    r0, r1, r2 = [RingElem.one()], [RingElem.one()], [RingElem.one()]
    for p in range(1, kmax + 1):
        a = r0[p - 1].derive() / L1
        b = r1[p - 1].derive() / L1 + bterm * r1[p - 1]
        rhs = L1 * bterm * b - (a * 2 + b).derive()
        r0.append(solve_linear(rhs * Fraction(1, 3)))
        r1.append(r0[p] + a)
        r2.append(r1[p] + b)
    return {0: r0, 1: r1, 2: r2}


def extract_mu(ibar_z0: QZSeries, w: CycScalar) -> QSeries:
    """The exponent series: the z^{-1} row of log of the restriction, over w.

    Raises if the logarithm has any pole deeper than z^{-1}; that the pole
    structure collapses to a single exponential is what makes the asymptotic
    form possible at all.
    """
    qmax = ibar_z0.qmax
    # The log is only needed on its pole rows, so a slimmer anti-diagonal cap
    # keeps the convolution cheap while leaving the z^{-1} row fully valid.
    zc = min(ibar_z0.zcap, max(qmax - 1, 0))
    restricted = QZSeries(ibar_z0.entries, qmax, zc)
    lg = restricted.log()
    for m, row in lg.pole_rows():
        if m <= -2 and not row.is_zero():
            raise ConsistencyError(f"log of restriction has a z^{m} pole")
    return lg.z_coefficient(-1) / w


def expand_rows(mirror: MirrorData, kmax: int, i: int = 0):
    """(mu, rows_q): the exact z-expansion of the normalized rows at fixed point i.

    rows_q[(m, k)] is the q-expansion of R_{m,k}, already rescaled by w^k so
    it is the same at every fixed point.  Requires mirror.qmax >= 2*kmax + 2,
    so that the q-orders pin every row in its L-window [-m, 2k] (plus the X
    part of row 2) exactly.
    """
    qmax = mirror.qmax
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    if qmax < 2 * kmax + 2:
        raise ValueError(f"qmax={qmax} too small for kmax={kmax}; need at least {2 * kmax + 2}")
    w = weight(i)
    zcap = kmax + qmax
    ibar_z0 = mirror.ibar[i].expand_at_zero(zcap)
    mu = extract_mu(ibar_z0, w)
    if QSeries.one(qmax) + mu.d_logq() != mirror.L:
        raise ConsistencyError("1 + D mu = L failed")

    sbar = [ibar_z0]
    sbar.append(apply_m(sbar[0], w).div_qseries(mirror.C1))
    sbar.append(apply_m(sbar[1], w).div_qseries(mirror.C2))
    expfac = QZSeries.exp_pole(-(mu * w), qmax, zcap)
    prefac = [
        QSeries.one(qmax),
        mirror.L * mirror.c * w,
        (mirror.C1 / mirror.L) * w**2,
    ]

    rows_q: dict[tuple[int, int], QSeries] = {}
    for m in range(3):
        hat = expfac * sbar[m]
        for depth, row in hat.pole_rows():
            if not row.is_zero():
                raise ConsistencyError(
                    f"normalized row {m} keeps a z^{depth} pole at fixed point {i}"
                )
        hat = hat.div_qseries(prefac[m])
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
        (m, k, rows[m][k].eval_q(mirror) == rows_q[(m, k)])
        for m in range(3)
        for k in range(kmax + 1)
    ]


def verify_lemma_R(rows: dict[int, list[RingElem]]) -> list[tuple[str, int, RingElem]]:
    """Residuals of the row recursions; all must be zero.

    The row1, row2 and row0 recursions of the module docstring, plus the
    closed two-step form of r2 in terms of r0 alone.
    """
    L1 = RingElem.L(1)
    L2 = RingElem.L(2)
    dl = L1.derive()
    bterm = _b_term()
    r0, r1, r2 = rows[0], rows[1], rows[2]
    kmax = len(r0) - 1
    out = []
    for p in range(kmax):
        out.append(("row1", p, r1[p + 1] - r0[p + 1] - r0[p].derive() / L1))
        out.append(
            ("row2", p, r2[p + 1] - r1[p + 1] - r1[p].derive() / L1 - bterm * r1[p])
        )
        out.append(
            ("row0", p, r0[p + 1] - r2[p + 1] - r2[p].derive() / L1 + bterm * r2[p])
        )
    for p in range(kmax - 1):
        closed = (
            r0[p + 2]
            + r0[p + 1].derive() * 2 / L1
            + (dl / L2) * r0[p + 1]
            + r0[p].derive().derive() / L2
            - (r0[p + 1] / L1 + r0[p].derive() / L2) * RingElem.X()
        )
        out.append(("closed2", p, r2[p + 2] - closed))
    return out
