"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every comparison here is exact.  Run with -s to see the per-criterion
lines; without -s they still appear for any failing criterion.
"""

import json
import random
from fractions import Fraction

from kp2 import cli
from kp2.anomaly import pointed_total, verify_ss56, verify_ttt
from kp2.localization import correlator, enumerate_graphs, per_graph_contributions
from kp2.lring import RingElem, verify_drule
from kp2.mgn import hodge_psi_integral, hodge_second_route, psi_integral
from kp2.mirror import c1_closed_form, verify_pf
from kp2.rseries import check_rows, expand_rows, extract_R_rows, verify_lemma_R
from kp2.scalars import CycScalar
from kp2.series import QSeries

from golden import GOLDEN_NAMES, genus2_graph_values, genus2_total

F = Fraction


def report(num: int, label: str, checks):
    failed = [name for name, ok in checks if not ok]
    print(f"criterion {num:02d} ({label}): " + ("PASS" if not failed else "FAIL"))
    assert not failed, f"criterion {num:02d} failed: {failed}"


def test_criterion_01_operator_annihilates_restricted_series():
    checks = [
        (f"fixed point {i}", verify_pf(i, 12, 8).is_zero()) for i in range(3)
    ]
    report(1, "operator residual at (12, 8)", checks)


def test_criterion_02_normalizations(mirror12):
    kink = QSeries([1, 27], 12)
    product = mirror12.C0 * mirror12.C1 * mirror12.C2 * kink
    checks = [
        ("first equals zeroth", mirror12.C0 == mirror12.C1),
        ("triple product is one", product == QSeries.one(12)),
        ("limit equals closed form", mirror12.C1 == c1_closed_form(12)),
    ]
    report(2, "normalization series", checks)


def test_criterion_03_asymptotic_rows(mirror12):
    kmax = 5
    rows = extract_R_rows(kmax)
    expansions = [expand_rows(mirror12, kmax, i) for i in range(3)]
    one = QSeries.one(12)
    slope_ok = all(one + mu.d_logq() == mirror12.L for mu, _ in expansions)
    series_ok = all(
        rows[m][k].eval_q(mirror12) == series
        for _, rows_q in expansions
        for (m, k), series in rows_q.items()
    )
    r1 = (RingElem.one() - RingElem.L(2)).scale(F(1, 18))
    r2 = (
        RingElem.one()
        - RingElem.L(1).scale(24)
        - RingElem.L(2).scale(2)
        + RingElem.L(4).scale(25)
    ).scale(F(1, 648))
    relations = verify_lemma_R(rows)
    coverage = {}
    for name, p, _ in relations:
        coverage.setdefault(name, set()).add(p)
    covered = all(
        set(range(kmax - 1)) <= coverage.get(name, set())
        for name in ("row1", "row2", "row0", "closed2")
    )
    perturbed = {m: list(row) for m, row in rows.items()}
    perturbed[0][2] = perturbed[0][2] + RingElem.L(2).scale(F(1, 7))
    control = check_rows(mirror12, perturbed)
    verify_drule(mirror12)  # raises on failure, both as ring rule and on series
    checks = [
        ("slope series reproduces L at every fixed point", slope_ok),
        ("ring rows match the z-expansions at every fixed point", series_ok),
        ("a perturbed row fails the series check", not all(ok for _, _, ok in control)),
        ("first-order entry", rows[0][1] == r1),
        ("second-order entry", rows[0][2] == r2),
        ("all recursion residuals zero", all(r.is_zero() for _, _, r in relations)),
        ("residual orders reach kmax-2", covered),
        ("derivation rule", True),
    ]
    report(3, "asymptotic rows", checks)


def test_criterion_04_intersection_engine():
    checks = [
        ("three-point base", psi_integral(0, (0, 0, 0)) == 1),
        ("elliptic base", psi_integral(1, (1,)) == F(1, 24)),
        ("genus-two base", psi_integral(2, (4,)) == F(1, 1152)),
    ]
    hodge_cases = [
        ((1, (0,), (1,)), F(1, 24)),
        ((2, (), (1, 1, 1)), F(1, 2880)),
        ((2, (), (1, 2)), F(1, 5760)),
    ]
    for (g, exps, lam), value in hodge_cases:
        checks.append(
            (f"hodge {g} {lam}", hodge_psi_integral(g, exps, lam) == value)
        )
        checks.append(
            (f"second route {g} {lam}", hodge_second_route(g, exps, lam) == value)
        )

    rng = random.Random(977)
    monomials = []
    while len(monomials) < 110:
        g = rng.randint(0, 3)
        n = rng.randint(max(1, 3 - 2 * g), 5)
        target = rng.choice([3 * g - 3 + n, 3 * g - 2 + n, rng.randint(0, 3 * g + n)])
        remaining = max(target, 0)
        exps = []
        for _ in range(n - 1):
            a = rng.randint(0, remaining)
            exps.append(a)
            remaining -= a
        exps.append(remaining)
        monomials.append((g, tuple(exps)))

    string_ok = dilaton_ok = True
    nontrivial = 0
    for g, exps in monomials:
        lhs = psi_integral(g, exps + (0,))
        rhs = sum(
            (
                psi_integral(g, exps[:j] + (a - 1,) + exps[j + 1:])
                for j, a in enumerate(exps)
                if a > 0
            ),
            F(0),
        )
        string_ok = string_ok and lhs == rhs
        dil = psi_integral(g, exps + (1,))
        dilaton_ok = dilaton_ok and dil == (2 * g - 2 + len(exps)) * psi_integral(g, exps)
        nontrivial += lhs != 0 or dil != 0
    checks += [
        ("at least 100 random monomials", len(monomials) >= 100),
        ("string equation", string_ok),
        ("dilaton equation", dilaton_ok),
        ("enough nonzero instances", nontrivial >= 20),
    ]
    report(4, "intersection engine", checks)


def test_criterion_05_graph_census():
    graphs = enumerate_graphs(2, ())
    report(5, "graph census at (2, 0)", [("exactly seven", len(graphs) == 7)])


def test_criterion_06_per_graph_golden(ctx2):
    golden = genus2_graph_values()
    contributions = per_graph_contributions(ctx2, 2, ())
    expected = sorted(json.dumps(v.to_json()) for v in golden.values())
    computed = sorted(json.dumps(c.value.to_json()) for c in contributions)
    checks = [("value multisets agree", expected == computed)]
    for item in contributions:
        name = GOLDEN_NAMES[(item.graph.genera, item.graph.edges)]
        checks.append((name, item.value == golden[name]))
        print(f"  {name} <- {item.graph.signature()}")
    report(6, "genus-2 per-graph golden values", checks)


def test_criterion_07_genus_two_total(ctx2):
    total = correlator(ctx2, 2, ())
    a2 = total.to_a2_form()
    lo, hi = total.l_range()
    alo, ahi = a2.l_range()
    checks = [
        ("matches the frozen total", total == genus2_total()),
        ("value at the point (1, 0)", total.eval_at(1, 0, 1).as_rational() == F(1, 1920)),
        ("propagator degree is 3", a2.degree_in_a2() == 3),
        ("L-window", -9 <= lo <= hi <= 6),
        ("observed L-window", (alo, ahi) == (0, 6)),
    ]
    report(7, "genus-2 total", checks)


def test_criterion_08_anomaly_identity(ctx2):
    good = verify_ttt(ctx2)
    control = verify_ttt(ctx2, negative_control=True)
    checks = [
        ("residual is the zero element", good.passed and good.residual.is_zero()),
        ("negative control is nonzero", not control.passed),
    ]
    report(8, "unpointed anomaly identity", checks)


def test_criterion_09_one_point_lift(ctx2):
    total = correlator(ctx2, 2, ())
    lifted = correlator(ctx2, 2, ("H1",))
    rhs = RingElem.c(1) * total.derive()
    checks = [
        ("pointed total equals c*D of the series", lifted == rhs),
        ("same thing through d_dT", lifted == total.d_dT()),
    ]
    report(9, "one-point lift", checks)


def test_criterion_10_pointed_identities(ctx1, ctx2):
    three_squares = pointed_total(ctx1, 0, 0, 0, 3)
    expected = RingElem.monomial(CycScalar(F(-1, 3)), l=-3, e=-3)
    pointed = verify_ss56(ctx1, 1, 0, 0, 1)
    degenerate = verify_ss56(ctx2, 2, 0, 0, 0)
    bare = verify_ttt(ctx2)

    grading_ok = True
    for g, a, b, c_count in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 3, 0)):
        value = pointed_total(ctx1, g, a, b, c_count)
        for k in range(3):
            if not value.is_zero():
                grading_ok = grading_ok and value.c_degrees() == {k + b - c_count}
            value = value.d_dT()
    checks = [
        ("genus-0 triple square insertion", three_squares == expected),
        ("pointed identity at one square", pointed.passed),
        ("degenerates to the unpointed identity",
         degenerate.lhs == bare.lhs and degenerate.rhs == bare.rhs),
        ("insertion grading", grading_ok),
    ]
    report(10, "pointed identities", checks)


def test_criterion_11_deterministic_output(capsys):
    outputs = []
    for threads in ("1", "4", "8"):
        code = cli.main(["fg", "--genus", "2", "--threads", threads])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        outputs.append(captured.out)
    checks = [
        ("payload parses", bool(json.loads(outputs[0]))),
        ("1 vs 4 threads", outputs[0] == outputs[1]),
        ("1 vs 8 threads", outputs[0] == outputs[2]),
    ]
    report(11, "byte-identical output across thread counts", checks)
