from fractions import Fraction

import pytest

from kp2 import mirror, series
from kp2.mirror import (
    birkhoff_normalizations,
    build_ibar,
    mirror_data,
    mirror_map,
    verify_pf,
)
from kp2.scalars import ConsistencyError, CycScalar, weight
from kp2.series import QSeries


def test_pf_residual_vanishes_small():
    for i in range(3):
        assert verify_pf(i, 8, 5).is_zero()


def test_pf_negative_control(monkeypatch):
    # a restriction with one degree-1 numerator factor dropped must leave a
    # residual that the true restriction does not
    assert verify_pf(0, 6, 4).is_zero()

    def short_numerator(i, qmax):
        ibar = build_ibar(i, qmax)
        ibar.numerators[1] = ibar.numerators[1][1:]
        return ibar

    monkeypatch.setattr(mirror, "build_ibar", short_numerator)
    assert not verify_pf(0, 6, 4).is_zero()


def test_restricted_series_leading_pole():
    f = build_ibar(0, 5).expand_at_zero(3)
    for d in range(6):
        assert not f.get(d, -d).is_zero()
        assert f.get(d, -d - 1).is_zero() if d < 5 else True


def test_restricted_series_degree_zero_is_one():
    f = build_ibar(1, 4).expand_at_zero(2)
    assert f.get(0, 0) == CycScalar(1)
    assert f.get(0, 1).is_zero()


def test_normalizations(mirror12):
    assert mirror12.C0 == mirror12.C1
    kink = QSeries([1, 27], 12)
    product = mirror12.C0 * mirror12.C1 * mirror12.C2 * kink
    assert product == QSeries.one(12)
    assert mirror12.C1 * mirror12.C1 * mirror12.C2 == mirror12.L ** 3


def test_c1_matches_closed_form(mirror12):
    t_minus_logq, _ = mirror_map(12)
    assert mirror12.C1 == t_minus_logq.d_logq() + QSeries.one(12)
    expected = [1, -6, 90, -1680, 34650]
    for d, value in enumerate(expected):
        assert mirror12.C1[d] == CycScalar(value)


def test_normalizations_across_fixed_points():
    # each constant picks up one factor of w_i; the cube of a weight is 1,
    # so every defining product is weight-free
    base = birkhoff_normalizations(6)
    for i in (1, 2):
        alt = birkhoff_normalizations(6, i=i)
        w = weight(i)
        for ours, theirs in zip(base, alt):
            assert theirs == ours * QSeries.constant(w, 6)
        kink = QSeries([1, 27], 6)
        assert alt[0] * alt[1] * alt[2] * kink == QSeries.one(6)


def _double_u_entry(monkeypatch, k, d):
    """Make expand_at_infinity return its q^d u^k entry doubled."""
    expand = series.RatFunZ.expand_at_infinity

    def doubled(self, kmax):
        rows = expand(self, kmax)
        coeffs = list(rows[k].coeffs)
        coeffs[d] = coeffs[d] * 2
        rows[k] = QSeries(coeffs, rows[k].qmax)
        return rows

    monkeypatch.setattr(series.RatFunZ, "expand_at_infinity", doubled)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_doubled_u_entry_breaks_normalizations(i, monkeypatch):
    # the chain reads C1 from the q^1 u^1 entry; C0 = C1 is the check that
    # sees a wrong entry there
    birkhoff_normalizations(6, i=i)
    _double_u_entry(monkeypatch, 1, 1)
    with pytest.raises(ConsistencyError, match="C0 = C1 failed"):
        birkhoff_normalizations(6, i=i)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_every_u_entry_the_chain_reads_is_checked(i, monkeypatch):
    # The chain expands only through u^3, the rows its three M steps read.
    # Doubling any nonzero one of them must raise: C0 = C1 catches all but
    # the top q-degree of u^1, which the product relation catches.
    qmax = 4
    rows = build_ibar(i, qmax).expand_at_infinity(3)
    nonzero = [(k, d) for k in range(4) for d in range(qmax + 1) if not rows[k][d].is_zero()]
    assert len(nonzero) == 1 + 3 * qmax  # u^0 only at q^0, u^0 vanishes above
    for k, d in nonzero:
        with monkeypatch.context() as patch:
            _double_u_entry(patch, k, d)
            message = "C0 C1 C2" if (k, d) == (1, qmax) else "C0 = C1"
            with pytest.raises(ConsistencyError, match=message):
                birkhoff_normalizations(qmax, i=i)


def test_mirror_map(mirror12):
    t, qofq = mirror_map(12)
    assert t == mirror12.T_minus_logq
    assert t[0].is_zero()
    assert t[1] == CycScalar(-6)
    assert t[2] == CycScalar(45)
    # dT/dlogq = 1 + D(T - logq) equals C1
    assert t.d_logq() + QSeries.one(12) == mirror12.C1
    from kp2.series import qs_exp

    assert qofq == qs_exp(t)


def test_l_series(mirror12):
    cube = mirror12.L ** 3 * QSeries([1, 27], 12)
    assert cube == QSeries.one(12)
    assert mirror12.L[1] == CycScalar(-9)
    assert mirror12.L[2] == CycScalar(162)


def test_x_series(mirror12):
    assert mirror12.X == mirror12.C1.d_logq() / mirror12.C1
    assert mirror12.X[1] == CycScalar(-6)
    assert mirror12.X[2] == CycScalar(144)


def test_c_series_is_inverse_normalization(mirror12):
    assert mirror12.c * mirror12.C1 == QSeries.one(12)


def test_leading_pole_coefficient():
    # the self-index denominator factors are pure k*z, so the z^{-d} term
    # is the z=0 value of everything else; at d=1 that is (-3w)^3 over the
    # two cross differences
    f = build_ibar(2, 3).expand_at_zero(4)
    w = weight(2)
    lead = (-3 * w) ** 3 / ((w - weight(0)) * (w - weight(1)))
    assert f.get(1, -1) == lead


def test_mirror_data_requires_positive_truncation():
    with pytest.raises(ValueError, match="qmax must be non-negative, got -1"):
        mirror_data(-1)
