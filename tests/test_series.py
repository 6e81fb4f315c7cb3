from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kp2 import series
from kp2.scalars import ONE, ZERO, ConsistencyError, CycScalar
from kp2.series import QSeries, QZSeries, RatFunZ, qs_exp, qs_log

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


def test_results_are_not_coerced_again(monkeypatch):
    # the public constructor coerces ints and Fractions; the results of
    # this module already hold CycScalars and skip it
    f = QSeries([1, Fraction(1, 2), 3], 4)
    assert f.coeffs == tuple(map(CycScalar, (1, Fraction(1, 2), 3, 0, 0)))
    assert all(type(c) is CycScalar for c in f.coeffs)
    x, calls = f - 1, []
    real = series.to_cyc
    monkeypatch.setattr(series, "to_cyc", lambda c: calls.append(c) or real(c))
    results = [f * f, f + f, -f, f - f, f.inverse(), f.d_logq(), qs_exp(x), qs_log(qs_exp(x)),
               QZSeries.lift(f, 4) * QZSeries.lift(f, 4, 1)]
    assert not calls
    assert f * 2 == results[1] and calls == [2]  # a scalar factor is coerced once
    assert results[0] == QSeries([1, 1, Fraction(25, 4), 3, 9], 4)
    assert results[-1].z_coefficient(1) == results[0] and results[-2] == x


def test_to_json_rational():
    f = QSeries([Fraction(1, 2), 3], 1)
    assert f.to_json() == ["1/2", "3/1"]


# -- QZSeries ----------------------------------------------------------------


def _qz(entries, qmax=4, zcap=4):
    """The QZSeries with the given (d, m) -> value entries."""
    return QZSeries(
        QSeries([entries.get((d, j - d), 0) for j in range(zcap + 1)], zcap)
        for d in range(qmax + 1)
    )


def _entries(qz):
    return {(d, j - d): c for d, row in enumerate(qz.rows)
            for j, c in enumerate(row.coeffs) if not c.is_zero()}


def _entry_product(x, y, qmax, zcap):
    """Reference product on entry dicts: every pair of entries, kept iff its
    q-degree is within qmax and it is on or below the anti-diagonal m + d = zcap."""
    out = {}
    for (d1, m1), c1 in x.items():
        for (d2, m2), c2 in y.items():
            d, m = d1 + d2, m1 + m2
            assert m >= -d
            if d <= qmax and m + d <= zcap:
                out[(d, m)] = out.get((d, m), ZERO) + c1 * c2
    return {key: c for key, c in out.items() if not c.is_zero()}


@st.composite
def qz_entries(draw):
    """Entries of a QZSeries, pole entries included, at a drawn (qmax, zcap)."""
    qmax, zcap = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    keys = [(d, m) for d in range(qmax + 1) for m in range(-d, zcap - d + 1)]
    value = st.builds(CycScalar, st.integers(-3, 3), st.integers(-1, 1)).filter(bool)
    return draw(st.dictionaries(st.sampled_from(keys), value, max_size=8)), qmax, zcap


@given(qz_entries(), qz_entries())
def test_qz_rows_agree_with_the_entrywise_reference(first, second):
    (x, qa, za), (y, qb, zb) = first, second
    a, b = _qz(x, qa, za), _qz(y, qb, zb)
    ab = a * b
    assert (ab.qmax, ab.zcap) == (min(qa, qb), min(za, zb))
    assert _entries(ab) == _entry_product(x, y, min(qa, qb), min(za, zb))
    for m in range(-qa, za + 1):
        column = a.z_coefficient(m)
        assert column.coeffs == tuple(x.get((d, m), ZERO) for d in range(min(qa, za - m) + 1))
        part = {key: c for key, c in x.items() if key[1] == m}
        assert _entries(QZSeries.lift(column, za, m)) == part


@given(qseries, st.integers(0, 4), st.integers(0, 6))
@settings(max_examples=40)
def test_qz_exp_pole_agrees_with_the_entrywise_reference(f, qmax, zcap):
    s = f - QSeries.constant(f[0], QMAX)
    over_z = {(d, -1): s[d] for d in range(1, min(qmax, zcap + 1) + 1) if not s[d].is_zero()}
    term = {(0, 0): ONE}
    total = dict(term)
    for k in range(1, qmax + 1):
        term = {key: c / k for key, c in _entry_product(term, over_z, qmax, zcap).items()}
        total = {key: total.get(key, ZERO) + term.get(key, ZERO) for key in total | term}
    expected = {key: c for key, c in total.items() if not c.is_zero()}
    assert _entries(QZSeries.exp_pole(s, qmax, zcap)) == expected


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
    assert _entries(a * three_q) == {(1, 0): CycScalar(3), (2, 2): CycScalar(21)}
    assert _entries(a * z) == {(0, 1): CycScalar(1), (1, 3): CycScalar(7)}
    assert _entries(a * z * z) == {(0, 2): CycScalar(1)}  # (1, 4) is past zcap
    s = QSeries([1, 2, 0, 0, 5], 4)
    assert _entries(a * QZSeries.lift(s, 4)) == {
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
    # the q^1 part 1/(2 z^2) has a pole deeper than z^-1
    f = RatFunZ([[], []], [[], [(0, 1), (0, 2)]], 1)
    with pytest.raises(ConsistencyError, match="pole bound"):
        f.expand_at_zero(3)


# -- RatFunZ ------------------------------------------------------------------


def test_zero_denominator_factor_is_refused_in_both_frames():
    f = RatFunZ([[]], [[(1, 1), (0, 0)]], 0)
    with pytest.raises(ZeroDivisionError):
        f.expand_at_zero(2)
    with pytest.raises(ZeroDivisionError):
        f.expand_at_infinity(2)


def test_numerator_above_denominator_diverges_at_infinity():
    # the q^1 part (1 + z)(2 + 3z)/(1 + z) = 2 + 3z expands at z = 0 only
    f = RatFunZ([[], [(1, 1), (2, 3)]], [[], [(1, 1)]], 1)
    assert f.expand_at_zero(2).get(1, 1) == CycScalar(3)
    with pytest.raises(ValueError, match=r"q\^1 term diverges at z=infinity"):
        f.expand_at_infinity(2)
