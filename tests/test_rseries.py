from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kp2.lring import RingElem, verify_drule
from kp2.mirror import mirror_data
from kp2.rseries import (
    check_rows,
    expand_rows,
    extract_R_rows,
    solve_linear,
    verify_lemma_R,
)
from kp2.scalars import ConsistencyError, CycScalar
from kp2.series import QSeries

KMAX = 10


@pytest.fixture(scope="module")
def rows():
    return extract_R_rows(KMAX)


@pytest.fixture(scope="module")
def mirror22():
    return mirror_data(2 * KMAX + 2)


@pytest.fixture(scope="module")
def expansions(mirror22):
    return {i: expand_rows(mirror22, KMAX, i) for i in range(3)}


def r1_closed_form() -> RingElem:
    return (RingElem.one() - RingElem.L(2)).scale(Fraction(1, 18))


def r2_closed_form() -> RingElem:
    return (RingElem.one() - RingElem.L(1).scale(24) - RingElem.L(2).scale(2)
            + RingElem.L(4).scale(25)).scale(Fraction(1, 648))


def test_mu_slope(mirror22, expansions):
    for mu, _ in expansions.values():
        assert mu.d_logq() + QSeries.one(mirror22.qmax) == mirror22.L


def test_row_zero_entries(rows):
    assert rows[0][0] == RingElem.one()
    assert rows[0][1] == r1_closed_form()
    assert rows[0][2] == r2_closed_form()


def test_row_one_and_two_entries(rows):
    assert rows[1][0] == RingElem.one()
    assert rows[2][0] == RingElem.one()
    assert rows[1][1] == r1_closed_form()
    dl_over_l2 = (RingElem.L(2) - RingElem.L(-1)).scale(Fraction(1, 3))
    x_over_l = RingElem.X() * RingElem.L(-1)
    assert rows[2][1] == r1_closed_form() + dl_over_l2 - x_over_l


def test_degree_windows(rows):
    for m in range(3):
        for k, entry in enumerate(rows[m]):
            if entry.is_zero():
                continue
            low, high = entry.l_range()
            assert low >= -m and high <= 2 * k
            assert entry.x_degree() <= (1 if m == 2 else 0)


def test_lemma_relations(rows):
    residuals = verify_lemma_R(rows)
    assert len(residuals) >= 3 * (KMAX - 1)
    for name, p, residual in residuals:
        assert residual.is_zero(), (name, p)


def test_rows_agree_across_fixed_points(rows, mirror22, expansions):
    # qmax = 2 kmax + 2 pins every row in its degree window, so this is as
    # strict as a fit of the rows to the expansions
    for i, (_, rows_q) in expansions.items():
        assert len(rows_q) == 3 * (KMAX + 1)
        for (m, k), series in rows_q.items():
            assert rows[m][k].eval_q(mirror22) == series, (i, m, k)


def test_series_check_catches_a_perturbed_row(mirror12):
    rows = extract_R_rows(5)
    assert all(agrees for _, _, agrees in check_rows(mirror12, rows, 1))
    rows[0][2] = rows[0][2] + RingElem.L(2).scale(Fraction(1, 7))
    failed = [(m, k) for m, k, agrees in check_rows(mirror12, rows, 1) if not agrees]
    assert failed == [(0, 2)]


def test_drule(mirror22):
    verify_drule(mirror22)


def test_truncation_guard(mirror12):
    with pytest.raises(ValueError):
        expand_rows(mirror12, 6)  # needs qmax >= 14
    with pytest.raises(ValueError):
        check_rows(mirror12, extract_R_rows(6))
    with pytest.raises(ValueError):
        extract_R_rows(-1)


coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
laurent = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.tuples(coeff, coeff), max_size=5
).map(lambda d: RingElem({(l, 0, 0): CycScalar(a, b) for l, (a, b) in d.items()}))


@given(laurent)
def test_solve_linear_round_trip(f):
    f = f - f.eval_at(1, 0)
    assert solve_linear(f.derive()) == f


@pytest.mark.parametrize(
    "rhs",
    [
        RingElem.L(3) - RingElem.one(),  # D(3 log L)
        RingElem.X() * RingElem.L(3),
        RingElem.c(1) * RingElem.L(3),
        RingElem.L(-1),  # f would need L^-1, above max - 3 = -4
    ],
    ids=["log", "X", "c", "not-in-image"],
)
def test_solve_linear_rejects(rhs):
    with pytest.raises(ConsistencyError):
        solve_linear(rhs)
