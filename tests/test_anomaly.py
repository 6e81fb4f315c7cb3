"""Anomaly identities: exact ring equalities between assembled totals."""

from fractions import Fraction

import pytest

from kp2 import anomaly
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


def test_negative_control_breaks_identity(ctx2, monkeypatch):
    # the genus-2 right side reads the second T-derivative of F_1; a wrong
    # closed form for it must break the identity that holds with the right one
    assert verify_ttt(ctx2).passed
    real = anomaly.genus_one_inputs

    def doubled():
        d_f1, d2_f1 = real()
        return d_f1, d2_f1.scale(2)

    monkeypatch.setattr(anomaly, "genus_one_inputs", doubled)
    report = verify_ttt(ctx2)
    assert not report.passed
    assert not report.residual.is_zero()


def test_dT_genus_zero_adds_hyperplanes(ctx1):
    # with fewer than three markings each T-derivative is one more H1
    total = anomaly._totals(ctx1)
    for (a, b, c_count), order in [((1, 0, 1), 1), ((0, 2, 0), 1), ((0, 1, 0), 2),
                                   ((0, 2, 0), 2), ((1, 0, 0), 2)]:
        got = anomaly._dT(total, 0, a, b, c_count, order)
        assert got == pointed_total(ctx1, 0, a, b + order, c_count), (a, b, c_count, order)
        assert got.is_zero() == (a == 1 and order == 2)


def test_dT_unpointed_genus_one_is_the_closed_form(ctx1):
    total = anomaly._totals(ctx1)
    d_f1, d2_f1 = genus_one_inputs()
    assert anomaly._dT(total, 1, 0, 0, 0, 1) == d_f1
    assert anomaly._dT(total, 1, 0, 0, 0, 2) == d2_f1


def test_dT_stable_case_derives(ctx1):
    total = anomaly._totals(ctx1)
    for g, (a, b, c_count) in [(1, (0, 1, 0)), (0, (0, 0, 3)), (2, (0, 0, 0))]:
        second = pointed_total(ctx1, g, a, b, c_count).d_dT().d_dT()
        assert not second.is_zero(), g
        assert anomaly._dT(total, g, a, b, c_count, 2) == second, g
        assert anomaly._dT(total, g, a, b, c_count, 1) == pointed_total(ctx1, g, a, b, c_count).d_dT()


def test_dT_unpointed_genus_zero_raises(ctx1):
    with pytest.raises(ValueError):
        anomaly._dT(anomaly._totals(ctx1), 0, 0, 0, 0, 2)


def test_unpointed_identity_genus_range(ctx2):
    with pytest.raises(ValueError):
        verify_ttt(ctx2, 1)
    report = verify_ttt(ctx2, 3)
    assert report.passed
    assert report.genus == 3
    assert not report.lhs.is_zero()


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
    assert mirror12.eval_q(report.lhs) == mirror12.eval_q(report.rhs)


def test_lift_two_point(ctx2, mirror12):
    report = verify_lift(ctx2, 2, two_point=True)
    assert report.passed
    assert report.genus == 1
    assert mirror12.eval_q(report.lhs) == mirror12.eval_q(report.rhs)


def test_lift_genus_one(ctx1):
    assert verify_lift(ctx1, 1).passed
    with pytest.raises(ValueError, match="two-point"):
        verify_lift(ctx1, 1, two_point=True)


def test_pointed_identity_square_insertion(ctx1):
    # three squares have delta = 3 = 0 mod 3, so the totals do not vanish
    # and the identity is a real check (one square would be vacuous)
    report = verify_ss56(ctx1, 1, 0, 0, 3)
    assert report.passed
    assert not report.to_json()["vacuous"]
    assert not report.lhs.is_zero()


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


@pytest.mark.parametrize("counts, name", [
    ((-1, 1, 0, 0), "a"), ((0, -1, 3, 0), "b"), ((0, 1, -1, 0), "c"), ((0, 0, 3, -1), "delta"),
])
def test_negative_counts_raise_before_assembly(counts, name):
    # the context is None: the check must come before any correlator work
    a, b, c_count, delta = counts
    with pytest.raises(ValueError, match=f"insertion count {name} must be non-negative"):
        pointed_total(None, 1, a, b, c_count, delta=delta)
    if not delta:
        with pytest.raises(ValueError, match=f"insertion count {name} must be non-negative"):
            verify_ss56(None, 1, a, b, c_count)


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


@pytest.mark.parametrize("identity, calls", [
    (lambda ctx: verify_ss56(ctx, 1, 0, 0, 3), 5),
    (lambda ctx: verify_ttt(ctx, 3), 2),
    (lambda ctx: verify_lift(ctx, 2), 2),
], ids=["ss56-g1-c3", "ttt-g3", "lift-g2"])
def test_one_evaluation_per_total(identity, calls, ctx2, monkeypatch):
    # the ordered split sum and the second T-derivative share totals; each
    # distinct (genus, insertions) must be assembled once per identity
    seen = []
    real = anomaly.correlator

    def counting(ctx, g, insertions):
        seen.append((g, tuple(insertions)))
        return real(ctx, g, insertions)

    monkeypatch.setattr(anomaly, "correlator", counting)
    assert identity(ctx2).passed
    assert len(seen) == len(set(seen)) == calls
