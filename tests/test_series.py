from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kp2.scalars import CycScalar
from kp2.series import QSeries, QZSeries, qs_exp, qs_log

QMAX = 6

coeff = st.fractions(min_value=-100, max_value=100, max_denominator=20)
qseries = st.lists(coeff, min_size=QMAX + 1, max_size=QMAX + 1).map(
    lambda cs: QSeries(cs, QMAX)
)


@given(qseries, qseries, qseries)
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@given(qseries)
def test_inverse_of_unit(f):
    unit = f - QSeries.constant(f[0], QMAX) + QSeries.one(QMAX)
    assert unit * unit.inverse() == QSeries.one(QMAX)


def test_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        QSeries([0, 1], 3).inverse()


@given(qseries)
def test_exp_log_roundtrip(f):
    x = f - QSeries.constant(f[0], QMAX)  # kill the constant term
    assert qs_log(qs_exp(x)) == x


@given(qseries, qseries)
def test_exp_is_homomorphism(f, g):
    x = f - QSeries.constant(f[0], QMAX)
    y = g - QSeries.constant(g[0], QMAX)
    assert qs_exp(x + y) == qs_exp(x) * qs_exp(y)


@given(qseries)
def test_dlogq_integrate_roundtrip(f):
    assert f.d_logq().integrate_logq() + QSeries.constant(f[0], QMAX) == f


@given(qseries, qseries)
def test_dlogq_leibniz(f, g):
    assert (f * g).d_logq() == f.d_logq() * g + f * g.d_logq()


def test_truncate_and_index():
    f = QSeries([1, 2, 3], 2)
    assert f[1] == CycScalar(2)
    assert f[-2].is_zero()
    assert QSeries([1, 2, 3], 1).coeffs == QSeries([1, 2], 1).coeffs  # qmax truncates
    with pytest.raises(IndexError):
        f[5]


def test_to_json_rational():
    f = QSeries([Fraction(1, 2), 3], 1)
    assert f.to_json() == ["1/2", "3/1"]


# -- QZSeries ----------------------------------------------------------------


def _qz(entries, qmax=4, zcap=4):
    return QZSeries({k: CycScalar(v) for k, v in entries.items()}, qmax, zcap)


def test_qz_product_tracks_pole_and_cap():
    a = _qz({(0, 0): 1, (1, -1): 2})
    b = _qz({(0, 0): 1, (1, -1): 5})
    ab = a * b
    assert ab.get(1, -1) == CycScalar(7)
    assert ab.get(2, -2) == CycScalar(10)
    assert ab.zcap == 4


def test_qz_exp_pole_inverse():
    s = QSeries([0, 2, -3, 1], 4)
    e = QZSeries.exp_pole(s, 4, 4)
    ei = QZSeries.exp_pole(-s, 4, 4)
    assert e * ei == QZSeries.lift(QSeries.one(4), 4)


def test_qz_shift_and_coefficient_helpers():
    # products with a lifted q-series, z and 3q give what a direct q-shift,
    # z-shift and q-series product give, down to the entries the
    # anti-diagonal m + d <= zcap drops
    a = _qz({(0, 0): 1, (1, 2): 7})
    z = QZSeries.lift(QSeries.one(4), 4, 1)
    three_q = QZSeries.lift(QSeries([0, 3], 4), 4)
    assert (a * three_q).entries == {(1, 0): CycScalar(3), (2, 2): CycScalar(21)}
    assert (a * z).entries == {(0, 1): CycScalar(1), (1, 3): CycScalar(7)}
    assert (a * z * z).entries == {(0, 2): CycScalar(1)}  # (1, 4) is past zcap
    s = QSeries([1, 2, 0, 0, 5], 4)
    assert (a * QZSeries.lift(s, 4)).entries == {
        (0, 0): CycScalar(1), (1, 0): CycScalar(2), (4, 0): CycScalar(5),
        (1, 2): CycScalar(7), (2, 2): CycScalar(14),
    }
    assert a.z_coefficient(2)[1] == CycScalar(7)


def test_series_are_unhashable():
    # equality stops at the shorter truncation, so no hash can agree with it
    assert QSeries([1, 2, 3], 2) == QSeries([1, 2], 1)
    with pytest.raises(TypeError):
        hash(QSeries([1, 2], 1))
    with pytest.raises(TypeError):
        hash(QZSeries.lift(QSeries.one(2), 2))


def test_qz_pole_bound_enforced():
    with pytest.raises(Exception):
        _qz({(0, -1): 1})
