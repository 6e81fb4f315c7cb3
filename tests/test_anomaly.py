"""Anomaly identities: exact ring equalities between assembled totals."""

from fractions import Fraction

import pytest

from kp2 import ConsistencyError, anomaly, localization
from kp2.anomaly import (
    genus_one_inputs,
    pointed_total,
    verify_lift,
    verify_ss56,
    verify_ttt,
)
from kp2.localization import build_context, correlator
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
    for (a, b, c_count), order in [((1, 0, 1), 1), ((0, 2, 0), 1), ((0, 1, 0), 2),
                                   ((0, 2, 0), 2), ((1, 0, 0), 2)]:
        got = anomaly._dT(ctx1, 0, a, b, c_count, order)
        assert got == pointed_total(ctx1, 0, a, b + order, c_count), (a, b, c_count, order)
        assert got.is_zero() == (a == 1 and order == 2)


def test_dT_unpointed_genus_one_is_the_closed_form(ctx1):
    d_f1, d2_f1 = genus_one_inputs()
    assert anomaly._dT(ctx1, 1, 0, 0, 0, 1) == d_f1
    assert anomaly._dT(ctx1, 1, 0, 0, 0, 2) == d2_f1


def test_dT_stable_case_derives(ctx1):
    for g, (a, b, c_count) in [(1, (0, 1, 0)), (0, (0, 0, 3)), (2, (0, 0, 0))]:
        second = pointed_total(ctx1, g, a, b, c_count).d_dT().d_dT()
        assert not second.is_zero(), g
        assert anomaly._dT(ctx1, g, a, b, c_count, 2) == second, g
        assert anomaly._dT(ctx1, g, a, b, c_count, 1) == pointed_total(ctx1, g, a, b, c_count).d_dT()


def test_dT_unpointed_genus_zero_raises(ctx1):
    with pytest.raises(ValueError):
        anomaly._dT(ctx1, 0, 0, 0, 0, 2)


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


def _count_assemblies(monkeypatch) -> list:
    """The (genus, tags) of each total assembled from here on."""
    seen = []
    real = localization.per_graph_contributions

    def counting(ctx, g, tags):
        seen.append((g, tags))
        return real(ctx, g, tags)

    monkeypatch.setattr(localization, "per_graph_contributions", counting)
    return seen


@pytest.mark.parametrize("identity, lookups, distinct, assembled", [
    (lambda ctx: verify_ss56(ctx, 1, 0, 0, 3), 9, 5, 3),
    (lambda ctx: verify_ttt(ctx, 3), 4, 2, 2),
    (lambda ctx: verify_lift(ctx, 2), 2, 2, 2),
], ids=["ss56-g1-c3", "ttt-g3", "lift-g2"])
def test_one_evaluation_per_total(identity, lookups, distinct, assembled, monkeypatch):
    # the ordered split sum and the second T-derivative read totals more
    # than once; the context assembles each distinct (genus, insertions)
    # once, and none whose weight degree makes it zero
    looked = []
    real = anomaly.correlator

    def counting(ctx, g, insertions):
        looked.append((g, tuple(insertions)))
        return real(ctx, g, insertions)

    monkeypatch.setattr(anomaly, "correlator", counting)
    seen = _count_assemblies(monkeypatch)
    assert identity(build_context()).passed
    assert (len(looked), len(set(looked))) == (lookups, distinct)
    assert len(seen) == len(set(seen)) == assembled


def test_identities_share_totals_on_one_context(monkeypatch):
    # the lift reads F_2 and <H1>_2; the unpointed identity at genus 2 then
    # reads only F_2 (genus 1 is a closed form), so assembles nothing
    seen = _count_assemblies(monkeypatch)
    ctx = build_context()
    assert verify_lift(ctx, 2).passed
    assert verify_ttt(ctx, 2).passed
    assert seen == [(2, ("H1",)), (2, ())]


def test_a_kept_total_costs_no_ring_product(monkeypatch):
    # ring products counted inside RingElem.dot, as WORK_BOUNDS counts them
    ctx = build_context()
    first = correlator(ctx, 2, ("H1", "H1"))
    real, one = RingElem.dot, RingElem.one()
    products = []

    def counted(pairs):
        pairs = list(pairs)
        products.extend(None for x, y in pairs if x and y and y is not one)
        return real(pairs)

    monkeypatch.setattr(RingElem, "dot", staticmethod(counted))
    assert correlator(ctx, 2, ("H1", "H1")) == first
    assert products == []
    assert not first.is_zero()


def test_spellings_of_one_request_share_a_total(monkeypatch):
    # tags are normalized before the lookup but keep their order, so
    # permuted insertions are two entries with one value
    seen = _count_assemblies(monkeypatch)
    ctx = build_context()
    values = [correlator(ctx, 1, tags) for tags in (("H1", "H1"), ["H1", "H1"], (1, 1))]
    assert values[0] == values[1] == values[2] and not values[0].is_zero()
    assert seen == [(1, ("H1", "H1"))]
    assert list(ctx._total_memo) == [(1, ("H1", "H1"))]
    assert correlator(ctx, 1, ("H0", "H2")) == correlator(ctx, 1, ("H2", "H0"))
    assert seen[1:] == [(1, ("H0", "H2")), (1, ("H2", "H0"))]


def test_a_failed_assembly_keeps_no_total(monkeypatch):
    # a graph value with a c term fails the c-degree check of F_2; the
    # context keeps nothing, so the next call assembles again
    ctx = build_context()
    with monkeypatch.context() as patch:
        patch.setattr(localization, "graph_contribution", lambda ctx, graph: RingElem.c(1))
        with pytest.raises(ConsistencyError, match="c-degree 0"):
            correlator(ctx, 2, ())
    assert ctx._total_memo == {}
    assert correlator(ctx, 2, ()).eval_at(1, 0) == F(1, 1920)
