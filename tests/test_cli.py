"""Command-line behavior: payload shapes and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kp2 import anomaly, cli, graphs, labelled, localization, mirror, rseries
from kp2.labelled import CycElem
from kp2.lring import RingElem
from kp2.rseries import extract_R_rows
from kp2.scalars import ZETA, ConsistencyError

F = Fraction


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert err == ""
    payload = json.loads(out)
    # sorted keys make byte output deterministic
    assert out.strip() == json.dumps(payload, sort_keys=True)
    return code, payload


def test_graphs_command(capsys):
    code, payload = run_json(["graphs", "--genus", "2"], capsys)
    assert code == cli.EXIT_OK
    assert payload["count"] == 7
    assert sorted(g["aut_order"] for g in payload["graphs"]) == [1, 2, 2, 2, 8, 8, 12]


def test_graphs_text_format(capsys):
    code, out, err = run(["graphs", "--genus", "2", "--format", "text"], capsys)
    assert code == cli.EXIT_OK
    assert out.startswith("7 graphs at genus 2")
    assert out.count("aut=") == 7


def test_mgn_command(capsys):
    code, payload = run_json(["mgn", "--g", "1", "--psi", "1"], capsys)
    assert code == cli.EXIT_OK
    assert payload["value"] == "1/24"
    # with no --lambda the Hodge integral is the psi integral <tau_1 tau_4>_2
    code, payload = run_json(["mgn", "--g", "2", "--psi", "1,4"], capsys)
    assert code == cli.EXIT_OK
    assert payload["value"] == "1/384"
    code, payload = run_json(
        ["mgn", "--g", "2", "--psi", "1", "--lambda", "1,1,1"], capsys
    )
    assert code == cli.EXIT_OK
    assert payload["value"] == "1/1440"


def test_mgn_usage_errors(capsys):
    code, out, err = run(["mgn", "--g", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "error:" in err
    code, out, err = run(["mgn", "--g", "3", "--psi", "0", "--lambda", "0"], capsys)
    assert code == cli.EXIT_USAGE
    assert "malformed" in err
    # genus 3 is not a usage error
    code, payload = run_json(["mgn", "--g", "3", "--lambda", "2,2,2"], capsys)
    assert code == cli.EXIT_OK
    assert payload["value"] == "1/725760"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--psi", ",1"], "empty item in --psi ',1'"),
        (["--psi", "1,"], "empty item in --psi '1,'"),
        (["--psi", "x"], "non-integer item in --psi 'x'"),
        (["--psi", "1", "--lambda", "1,,1"], "empty item in --lambda '1,,1'"),
        (["--psi", "1", "--lambda", "1.5"], "non-integer item in --lambda '1.5'"),
        (["--psi", "2,-1"], "negative cotangent exponent"),
    ],
    ids=["psi-leading-comma", "psi-trailing-comma", "psi-word", "lambda-doubled-comma",
         "lambda-fraction", "psi-negative"],
)
def test_mgn_bad_items_are_usage_errors(argv, message, capsys):
    code, out, err = run(["mgn", "--g", "2", *argv], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_mirror_payload(capsys):
    code, payload = run_json(["mirror"], capsys)
    assert code == cli.EXIT_OK
    assert payload["qmax"] == 12
    for name in ("C0", "C1", "C2", "T_minus_logq", "Q_over_q", "L", "X", "c"):
        assert len(payload[name]) == 13
    assert [F(v) for v in payload["C1"][:3]] == [F(1), F(-6), F(90)]
    assert [F(v) for v in payload["L"][:3]] == [F(1), F(-9), F(162)]
    assert payload["C0"] == payload["C1"]


def test_rseries_payload(capsys):
    code, payload = run_json(["rseries", "--row", "1", "--kmax", "2"], capsys)
    assert code == cli.EXIT_OK
    assert [e["k"] for e in payload["entries"]] == [0, 1, 2]
    assert payload["entries"][0]["value"] == RingElem.one().to_json()
    first = (RingElem.one() - RingElem.L(2)).scale(F(1, 18))
    assert payload["entries"][1]["value"] == first.to_json()


def test_correlator_legs_equal_count_flags(capsys):
    code1, out1, _ = run(["correlator", "--genus", "0", "--legs", "2,2,2"], capsys)
    code2, out2, _ = run(["correlator", "--genus", "0", "--c", "3"], capsys)
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["insertions"] == ["H2", "H2", "H2"]


@pytest.mark.parametrize(
    "legs", ["H1,,H1", "H1,", ""], ids=["doubled-comma", "trailing-comma", "empty"]
)
def test_correlator_empty_leg_item_is_a_usage_error(legs, capsys):
    code, out, err = run(["correlator", "--genus", "2", "--legs", legs], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: empty item in --legs {legs!r}\n"


def test_correlator_flag_exclusivity(capsys):
    code, out, err = run(
        ["correlator", "--genus", "0", "--legs", "H1", "--b", "1"], capsys
    )
    assert code == cli.EXIT_USAGE
    assert "not both" in err


@pytest.mark.parametrize("flag", ["--a", "--b", "--c", "--delta"])
def test_correlator_negative_count_is_a_usage_error(flag, capsys):
    # ("H0",) * -1 is empty: without the check --a -1 --b 1 would print <H1>_1
    code, out, err = run(["correlator", "--genus", "1", "--b", "1", flag, "-1"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: {flag} must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--a", "-5", "--c", "3"], "a"),
        (["--b", "-1", "--c", "3"], "b"),
        (["--a", "1", "--c", "-2"], "c"),
    ],
    ids=["a", "b", "c"],
)
def test_verify_ss56_negative_count_is_a_usage_error(argv, name, capsys):
    # a bad input must not read as a failed identity (exit 1)
    code, out, err = run(["verify", "ss56", "--genus", "1", *argv], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: insertion count {name} must be non-negative")


def test_correlator_stability_guard(capsys):
    code, out, err = run(["correlator", "--genus", "0", "--b", "2"], capsys)
    assert code == cli.EXIT_USAGE


def test_fg_genus_guard(capsys):
    code, out, err = run(["fg", "--genus", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, value",
    [(["correlator", "--genus", "3", "--legs", "H0"], F(0)),
     (["fg", "--genus", "3"], F(-1, 483840))],
    ids=["correlator", "fg"],
)
def test_genus_three_commands(argv, value, capsys):
    code, payload = run_json(argv, capsys)
    assert code == cli.EXIT_OK
    assert payload["genus"] == 3
    assert RingElem.from_json(payload["total"]).eval_at(1, 0) == value


def test_usage_errors_from_argparse(capsys):
    assert cli.main(["fg"]) == cli.EXIT_USAGE  # missing required flag
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main([]) == cli.EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, name, flags",
    [(["graphs", "--genus", "2"], "graphs", {"--genus", "--legs"}),
     (["verify", "ss56", "--genus", "1"], "ss56", {"--genus", "--a", "--b", "--c"})],
    ids=["graphs", "verify-ss56"],
)
def test_parser_builds_only_the_selected_subcommand(argv, name, flags):
    # every other subcommand is listed with its help alone: -h and no flags
    def subcommands(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def options(parser):
        return {flag for action in parser._actions for flag in action.option_strings}

    parser = cli.build_parser(argv)
    built = dict(subcommands(parser))
    if argv[0] == "verify":
        assert options(built["verify"]) == {"-h", "--help"}
        built.update(subcommands(built.pop("verify")))
    for other, child in built.items():
        want = flags | {"--format"} if other == name else set()
        assert options(child) == want | {"-h", "--help"}, other


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "verify" in out


def test_verify_pf_cli(capsys):
    code, payload = run_json(["verify", "pf", "--qmax", "8", "--zmax", "5"], capsys)
    assert code == cli.EXIT_OK
    assert payload["pass"] is True
    assert payload["residual_zero"] == {"0": True, "1": True, "2": True}


def test_verify_lemma_r_cli(capsys):
    code, payload = run_json(["verify", "lemmaR", "--kmax", "3"], capsys)
    assert code == cli.EXIT_OK
    assert payload["pass"] is True
    assert payload["drule"] == "ok"
    assert payload["relations"]
    assert all(item["zero"] for item in payload["relations"])
    assert len(payload["series"]) == 3 * 3 * 4  # fixed points x rows x orders
    assert all(item["match"] for item in payload["series"])


def test_verify_lemma_r_cli_catches_a_perturbed_row(capsys, monkeypatch):
    def perturbed(kmax):
        rows = extract_R_rows(kmax)
        rows[0][2] = rows[0][2] + RingElem.L(2).scale(F(1, 7))
        return rows

    monkeypatch.setattr(rseries, "extract_R_rows", perturbed)
    code, payload = run_json(["verify", "lemmaR", "--kmax", "3"], capsys)
    assert code == cli.EXIT_VERIFY
    assert payload["pass"] is False
    failed = {(item["i"], item["m"], item["k"])
              for item in payload["series"] if not item["match"]}
    assert failed == {(0, 0, 2), (1, 0, 2), (2, 0, 2)}


def test_verify_lift_cli_genus_one(capsys):
    # the two-point form would drop to genus 0 with two markings
    code, payload = run_json(["verify", "lift", "--genus", "1"], capsys)
    assert code == cli.EXIT_OK
    assert payload["pass"] is True
    assert payload["two_point"] is None
    assert payload["one_point"]["pass"] is True
    assert payload["one_point"]["vacuous"] is False
    code, out, err = run(["verify", "lift", "--genus", "1", "--format", "text"], capsys)
    assert (code, out, err) == (cli.EXIT_OK, "lift genus 1: pass\n", "")


def test_verify_ss56_cli(capsys):
    # One square insertion has delta = 1, not 0 mod 3, so every total in
    # the identity is exactly zero and the report must say it is vacuous.
    code, payload = run_json(
        ["verify", "ss56", "--genus", "1", "--c", "1"], capsys
    )
    assert code == cli.EXIT_OK
    assert payload["report"]["pass"] is True
    assert payload["report"]["residual"] == []
    assert payload["report"]["vacuous"] is True


@pytest.mark.parametrize("genus, c, vacuous", [(1, 1, True), (0, 3, True), (1, 3, False)])
def test_verify_ss56_text_marks_vacuous(genus, c, vacuous, capsys):
    # the text report says what the JSON one does: at (1, 1) and (0, 3) both
    # sides are exactly zero (at (1, 1) delta = 1)
    argv = ["verify", "ss56", "--genus", str(genus), "--c", str(c)]
    code, payload = run_json(argv, capsys)
    assert code == cli.EXIT_OK
    assert payload["report"]["vacuous"] is vacuous
    code, out, err = run(argv + ["--format", "text"], capsys)
    assert code == cli.EXIT_OK and err == ""
    mark = " (vacuous: both sides are exactly zero)" if vacuous else ""
    assert out == f"ss56 genus {genus} (a=0, b=0, c={c}): pass{mark}\n"


def test_verify_ss56_cli_non_vacuous(capsys):
    code, payload = run_json(
        ["verify", "ss56", "--genus", "1", "--c", "3"], capsys
    )
    assert code == cli.EXIT_OK
    assert payload["report"]["pass"] is True
    assert payload["report"]["vacuous"] is False
    assert payload["report"]["lhs"] != []


@pytest.mark.parametrize(
    "argv",
    [
        ["rseries", "--row", "0", "--kmax", "-1"],
        ["graphs", "--genus", "-1", "--legs", "5"],
        ["verify", "pf", "--qmax", "-1"],
        ["verify", "pf", "--qmax", "2", "--zmax", "-3"],
        ["mirror", "--qmax", "-1"],
        ["mirror", "--qmax", "-3"],
        ["verify", "lemmaR", "--qmax", "-1"],
    ],
    ids=["rseries-kmax", "graphs-genus", "pf-qmax", "pf-zmax",
         "mirror-qmax", "mirror-qmax-3", "lemmaR-qmax"],
)
def test_bad_sizes_are_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if argv[0] == "mirror" or "lemmaR" in argv:
        assert err == f"error: qmax must be non-negative, got {argv[-1]}\n"


def test_unexpected_error_exit(capsys, monkeypatch):
    def boom(genus, legs):
        raise IndexError("fabricated")

    monkeypatch.setattr(graphs, "enumerate_graphs", boom)
    code, out, err = run(["graphs", "--genus", "2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert err == "internal error: IndexError: fabricated\n"


def test_verify_failure_exit(capsys, monkeypatch):
    class FakeResidual:
        def is_zero(self):
            return False

    monkeypatch.setattr(mirror, "verify_pf", lambda i, qmax, zmax: FakeResidual())
    code, payload = run_json(["verify", "pf"], capsys)
    assert code == cli.EXIT_VERIFY
    assert payload["pass"] is False


# One quick command line per subcommand and per verify suite.
_EVERY_COMMAND = {
    "fg": ["fg", "--genus", "2"],
    "correlator": ["correlator", "--genus", "0", "--c", "3"],
    "graphs": ["graphs", "--genus", "2"],
    "rseries": ["rseries", "--row", "1", "--kmax", "2"],
    "mirror": ["mirror", "--qmax", "4"],
    "mgn": ["mgn", "--g", "1", "--psi", "1"],
    "pf": ["verify", "pf", "--qmax", "8", "--zmax", "5"],
    "hae": ["verify", "hae"],
    "lift": ["verify", "lift", "--genus", "1"],
    "ss56": ["verify", "ss56", "--genus", "1", "--c", "1"],
    "lemmaR": ["verify", "lemmaR", "--kmax", "2"],
}


def test_every_command_has_a_command_line():
    assert set(_EVERY_COMMAND) == (set(cli._SUBCOMMANDS) - {"verify"}) | set(cli._SUITES)


@pytest.mark.parametrize("argv", _EVERY_COMMAND.values(), ids=_EVERY_COMMAND)
def test_main_names_the_command_in_the_payload(argv, capsys):
    # main, not the handler, adds the argv words: command, and what for a suite
    code, payload = run_json(argv, capsys)
    assert code == cli.EXIT_OK
    assert payload["command"] == argv[0]
    assert payload.get("what") == (argv[1] if argv[0] == "verify" else None)


@pytest.mark.parametrize("routine, argv", [
    ("verify_ttt", _EVERY_COMMAND["hae"]),
    ("verify_ss56", ["verify", "ss56", "--genus", "1", "--c", "3"]),
    ("verify_lift", ["verify", "lift"]),
], ids=["hae", "ss56", "lift"])
def test_a_failed_anomaly_identity_exits_1(routine, argv, capsys, monkeypatch):
    failed = anomaly.HAEReport(2, RingElem.one(), RingElem.zero(), RingElem.one(), False)
    monkeypatch.setattr(anomaly, routine, lambda *args, **kwargs: failed)
    code, out, err = run(argv, capsys)
    assert (code, err) == (cli.EXIT_VERIFY, "")
    assert '"pass": false' in out
    code, out, err = run(argv + ["--format", "text"], capsys)
    assert (code, err) == (cli.EXIT_VERIFY, "")
    assert out.endswith(": FAIL\n")


def test_internal_failure_exit(capsys, monkeypatch):
    def boom(i, qmax, zmax):
        raise ConsistencyError("fabricated breakage")

    monkeypatch.setattr(mirror, "verify_pf", boom)
    code, out, err = run(["verify", "pf"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert "internal consistency failure" in err


def pair_from_json(data) -> CycElem:
    """A JSON ring element whose coefficients may have a zeta part."""
    return CycElem(*(RingElem({(t["L"], t["X"], t["c"]): F(t["coeff"][part]) for t in data})
                     for part in "ab"))


def test_fg_per_graph_payload(capsys):
    code, payload = run_json(["fg", "--genus", "2", "--per-graph"], capsys)
    assert code == cli.EXIT_OK
    assert payload["genus"] == 2
    graphs = payload["graphs"]
    assert len(graphs) == 7
    total = RingElem.from_json(payload["total"])
    addends = RingElem.zero()
    for entry in graphs:
        assert set(entry) == {"signature", "aut_order", "value", "decorations"}
        value = RingElem.from_json(entry["value"])
        addends = addends + value
        decorations = RingElem.zero()
        for dec in entry["decorations"]:
            assert set(dec) == {"labels", "aut_order", "value"}
            assert all(lab in (0, 1, 2) for lab in dec["labels"])
            decorations = decorations + pair_from_json(dec["value"])
        # the sum over all labellings against the decorations evaluated one by one
        assert decorations == value, entry["signature"]
    assert addends == total
    assert total.eval_at(1, 0, 1) == F(1, 1920)


def test_fg_per_graph_checks_the_decoration_sums(capsys, monkeypatch):
    # fg --per-graph compares each graph value, summed over all labellings,
    # with the exact sum of its decoration values at their labels.  The
    # label sums never read the direct edge worker, so L added to it at the
    # labels (1, 2) perturbs only the decoration values, and the run names
    # the first graph with such an edge.  Unperturbed, it passes.
    code, out, err = run(["fg", "--genus", "2", "--per-graph"], capsys)
    assert (code, err) == (0, "") and out
    real = labelled.edge_contribution

    def skewed(ctx, i, j, b1, b2):
        value = real(ctx, i, j, b1, b2)
        return value + RingElem.L() if (i, j) == (1, 2) else value

    monkeypatch.setattr(labelled, "edge_contribution", skewed)
    code, out, err = run(["fg", "--genus", "2", "--per-graph"], capsys)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == ("internal consistency failure: graph h=[0,0] p=[] e=[0-0;0-1;1-1] legs=[]: "
                   "the value is not the sum of its decoration values\n")


def test_ring_elements_print_as_frozen_text(capsys):
    # the text form of a ring element: terms in exponent order, each
    # coefficient in parentheses as a reduced fraction (an integer bare)
    code, out, err = run(["fg", "--genus", "2", "--format", "text"], capsys)
    assert (code, err) == (0, "")
    assert out == ("F_2 = (5/216)*L^-3 + (5/24)*L^-3*X + (5/8)*L^-3*X^2 + (5/8)*L^-3*X^3"
                   " + (-959/17280) + (-1/3)*X + (-1/2)*X^2 + (49/1080)*L^3 + (13/96)*L^3*X"
                   " + (-1/80)*L^6\n")
    code, out, err = run(["rseries", "--row", "2", "--kmax", "2", "--format", "text"], capsys)
    assert (code, err) == (0, "")
    assert out == ("R[2,0] = (1)\n"
                   "R[2,1] = (-1/3)*L^-1 + (-1)*L^-1*X + (1/18) + (5/18)*L^2\n"
                   "R[2,2] = (-1/54)*L^-1 + (-1/18)*L^-1*X + (1/648) + (1/18)*L + (1/18)*L*X"
                   " + (5/324)*L^2 + (-35/648)*L^4\n")


def test_verify_hae_cli(capsys):
    code, payload = run_json(["verify", "hae"], capsys)
    assert code == cli.EXIT_OK
    report = payload["report"]
    assert report["genus"] == 2
    assert report["pass"] is True and report["vacuous"] is False
    code, out, err = run(["verify", "hae", "--format", "text"], capsys)
    assert (code, out, err) == (cli.EXIT_OK, "hae genus 2: pass\n", "")


def test_verify_hae_cli_genus_one_is_a_usage_error(capsys):
    code, out, err = run(["verify", "hae", "--genus", "1"], capsys)
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert err == "error: the unpointed identity starts at genus 2\n"


def test_fg_total_meets_the_correlator_checks(capsys, monkeypatch):
    # a graph value with a c term must fail the c-degree check on the fg path
    monkeypatch.setattr(localization, "graph_contribution",
                        lambda ctx, graph: RingElem.c(1))
    code, out, err = run(["fg", "--genus", "2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == ("internal consistency failure: "
                   "series without insertions must have c-degree 0\n")


def test_fg_names_a_graph_value_that_is_not_rational(capsys, monkeypatch):
    # The graph sums read every edge factor through its rational modes Q_k,
    # E^(0,t) = sum_k zeta^(t k) Q_k, and the ring holds no zeta part.  A
    # mode with zeta L added to Q_1 is refused where it is built, an
    # internal fault (exit 3), not a usage error: the first graph, one
    # genus-0 vertex with two loops (each loop Q_0 + Q_1 + Q_2), is named
    # with the flags of its first loop.  Unperturbed, the run passes.
    code, out, err = run(["fg", "--genus", "2"], capsys)
    assert (code, err) == (0, "") and out
    real = localization._edge_modes

    def skewed(ctx, b1, b2):
        q0, q1, q2 = real(ctx, b1, b2)
        return q0, q1 + RingElem.monomial(ZETA, l=1), q2

    monkeypatch.setattr(localization, "_edge_modes", skewed)
    code, out, err = run(["fg", "--genus", "2"], capsys)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == ("internal consistency failure: value CycScalar(0, 1) is not rational "
                   "[graph h=[0] p=[] e=[0-0;0-0] legs=[], flags e0.0=1 e0.1=1]\n")


# Runs main in a fresh interpreter, then lists on stderr the kp2 modules,
# the standard modules that only the q-series commands may load, and the
# exact-arithmetic modules that the census and --help do without.
_IMPORT_PROBE = (
    "import sys\n"
    "from kp2 import cli\n"
    "cli.main(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in\n"
    "                      ('kp2', 'dataclasses', 'inspect', 'fractions', 'decimal'))),\n"
    "      file=sys.stderr)\n"
)


def loaded_modules(argv) -> set:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stderr.split())


@pytest.mark.parametrize("argv", [
    ["fg", "--genus", "2"],
    ["correlator", "--genus", "1", "--legs", "H1,H1"],
    ["graphs", "--genus", "2", "--legs", "1"],
    ["verify", "ss56", "--genus", "1", "--c", "3"],
    ["fg", "--genus", "2", "--per-graph"],
    ["mirror", "--qmax", "4"],
], ids=["fg", "correlator", "graphs", "ss56", "fg-per-graph", "mirror"])
def test_commands_load_only_their_layers(argv):
    # Each handler imports what it runs: the census needs no ring at all,
    # and with integral weights not even fractions, the graph-sum commands
    # never load the q-series layers, the Q(zeta) scalars or dataclasses,
    # only the anomaly command loads kp2.anomaly, and only fg --per-graph
    # loads the labelled reference route, whose pairs a + b zeta hold
    # rational parts: the graph sums evaluate vertices at label 0, where
    # every factor is rational.  The mirror series, in Q(zeta), load the
    # scalars, so the probe can see them.
    modules = loaded_modules(argv)
    if argv[0] == "graphs":
        assert modules == {"kp2", "kp2.cli", "kp2.graphs"}
        return
    if argv[0] == "mirror":
        assert {"kp2.mirror", "kp2.series", "kp2.scalars"} <= modules
        assert not modules & {"kp2.localization", "kp2.labelled"}
        return
    assert "kp2.localization" in modules
    assert not modules & {"kp2.mirror", "kp2.series", "kp2.scalars", "dataclasses", "inspect"}
    assert ("kp2.anomaly" in modules) == (argv[0] == "verify")
    assert ("kp2.labelled" in modules) == ("--per-graph" in argv)


def test_help_loads_no_layer():
    assert loaded_modules(["--help"]) == {"kp2", "kp2.cli"}


def test_layers_share_one_object_per_name():
    # the root defines the error that every layer raises, and the assembly
    # re-exports the census names rather than defining its own
    import kp2
    from kp2 import scalars

    assert kp2.ConsistencyError is scalars.ConsistencyError is ConsistencyError
    for name in ("StableGraph", "enumerate_graphs", "normalize_tag"):
        assert getattr(localization, name) is getattr(graphs, name), name
    # the two labelled-route names that perfbench/tracer.py reaches through
    # the assembly resolve to the labelled module's objects, and no other
    assert localization.edge_contribution is labelled.edge_contribution
    assert localization.decoration_orbits is labelled.decoration_orbits
    for name in ("labelled_contribution", "_p_coefficient", "graph_json", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(localization, name)
