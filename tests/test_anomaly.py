"""Anomaly identities: exact ring equalities between assembled totals."""

from fractions import Fraction

import pytest

from kp2.anomaly import (
    genus_one_inputs,
    pointed_total,
    verify_lift,
    verify_ss56,
    verify_ttt,
)
from kp2.lring import RingElem

F = Fraction


def test_genus_one_closed_forms():
    d_f1, d2_f1 = genus_one_inputs()
    expected = (RingElem.X().scale(3) + RingElem.one()
                - RingElem.L(3).scale(F(1, 2)))
    expected = (RingElem.c(1) * expected).scale(F(-1, 6))
    assert d_f1 == expected
    assert d2_f1 == d_f1.d_dT()
    assert d_f1.c_degrees() == {1}
    assert d2_f1.c_degrees() == {2}


def test_unpointed_identity_genus_two(ctx2):
    report = verify_ttt(ctx2)
    assert report.passed
    assert report.residual.is_zero()
    assert report.genus == 2
    assert not report.lhs.is_zero()


def test_negative_control_breaks_identity(ctx2):
    report = verify_ttt(ctx2, negative_control=True)
    assert not report.passed
    assert not report.residual.is_zero()


def test_unpointed_identity_genus_range(ctx2):
    with pytest.raises(ValueError):
        verify_ttt(ctx2, 1)
    with pytest.raises(ValueError):
        verify_ttt(ctx2, 3)


def test_report_json_shape(ctx2):
    payload = verify_ttt(ctx2).to_json()
    assert payload["pass"] is True
    assert set(payload) == {"genus", "lhs", "rhs", "residual", "pass", "vacuous"}
    assert payload["residual"] == []
    assert payload["vacuous"] is False


def test_lift_one_point(ctx2, mirror12):
    report = verify_lift(ctx2, 2)
    assert report.passed
    # same check through the q-expansion route
    assert report.lhs.eval_q(mirror12) == report.rhs.eval_q(mirror12)


def test_lift_two_point(ctx2, mirror12):
    report = verify_lift(ctx2, 2, two_point=True)
    assert report.passed
    assert report.genus == 1
    assert report.lhs.eval_q(mirror12) == report.rhs.eval_q(mirror12)


def test_lift_genus_one(ctx1):
    assert verify_lift(ctx1, 1).passed


def test_pointed_identity_square_insertion(ctx1):
    # every piece of this instance vanishes by weight symmetry, so the
    # check is that the assembly agrees on that
    report = verify_ss56(ctx1, 1, 0, 0, 1)
    assert report.passed


def test_pointed_identity_two_hyperplanes(ctx1):
    report = verify_ss56(ctx1, 1, 0, 2, 0)
    assert report.passed
    assert not report.lhs.is_zero()


def test_pointed_identity_degenerates_to_unpointed(ctx2):
    bare = verify_ttt(ctx2)
    pointed = verify_ss56(ctx2, 2, 0, 0, 0)
    assert pointed.passed
    assert pointed.lhs == bare.lhs
    assert pointed.rhs == bare.rhs


def test_pointed_total_stability():
    with pytest.raises(ValueError):
        pointed_total(None, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        pointed_total(None, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        verify_ss56(None, 0, 0, 0, 2)


def test_insertion_grading(ctx1):
    # one unit of grading per hyperplane and per descendent, minus one
    # per square; each T-derivative raises the grading by one
    cases = [
        (1, 1, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (1, 0, 0, 1, 0),
        (1, 0, 0, 0, 1),
        (0, 1, 1, 1, 0),
        (0, 0, 3, 0, 0),
        (0, 0, 1, 1, 1),
    ]
    for g, a, b, c_count, delta in cases:
        total = pointed_total(ctx1, g, a, b, c_count, delta=delta)
        expected = b - c_count + delta
        assert total.c_degrees() <= {expected}, (g, a, b, c_count, delta)
        if not total.is_zero():
            assert total.c_degrees() == {expected}
            shifted = total.d_dT()
            if not shifted.is_zero():
                assert shifted.c_degrees() == {expected + 1}
