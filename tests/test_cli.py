"""Command-line behavior: payload shapes, exit codes, thread handling."""

import json
from fractions import Fraction

import pytest

from kp2 import cli
from kp2.lring import RingElem
from kp2.rseries import extract_R_rows
from kp2.scalars import ConsistencyError

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
    code, payload = run_json(
        ["mgn", "--g", "2", "--psi", "1", "--lambda", "1,1,1"], capsys
    )
    assert code == cli.EXIT_OK
    assert payload["value"] == "1/1440"


def test_mgn_usage_errors(capsys):
    code, out, err = run(["mgn", "--g", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "error:" in err
    code, out, err = run(["mgn", "--g", "3", "--psi", "0", "--lambda", "1"], capsys)
    assert code == cli.EXIT_USAGE


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


def test_correlator_flag_exclusivity(capsys):
    code, out, err = run(
        ["correlator", "--genus", "0", "--legs", "H1", "--b", "1"], capsys
    )
    assert code == cli.EXIT_USAGE
    assert "not both" in err


def test_correlator_stability_guard(capsys):
    code, out, err = run(["correlator", "--genus", "0", "--b", "2"], capsys)
    assert code == cli.EXIT_USAGE


def test_fg_genus_guard(capsys):
    code, out, err = run(["fg", "--genus", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "error:" in err


def test_usage_errors_from_argparse(capsys):
    assert cli.main(["fg"]) == cli.EXIT_USAGE  # missing required flag
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.main([]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "verify" in out


def test_threads_sources_agree(capsys, monkeypatch):
    base_code, base_out, _ = run(["correlator", "--genus", "0", "--c", "3"], capsys)
    flag_code, flag_out, _ = run(
        ["correlator", "--genus", "0", "--c", "3", "--threads", "4"], capsys
    )
    monkeypatch.setenv("KP2_THREADS", "4")
    env_code, env_out, _ = run(["correlator", "--genus", "0", "--c", "3"], capsys)
    assert base_code == flag_code == env_code == cli.EXIT_OK
    assert base_out == flag_out == env_out


def test_threads_must_be_positive(capsys):
    code, out, err = run(
        ["correlator", "--genus", "0", "--c", "3", "--threads", "0"], capsys
    )
    assert code == cli.EXIT_USAGE
    assert "positive" in err


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

    monkeypatch.setattr(cli, "extract_R_rows", perturbed)
    code, payload = run_json(["verify", "lemmaR", "--kmax", "3"], capsys)
    assert code == cli.EXIT_VERIFY
    assert payload["pass"] is False
    failed = {(item["i"], item["m"], item["k"])
              for item in payload["series"] if not item["match"]}
    assert failed == {(0, 0, 2), (1, 0, 2), (2, 0, 2)}


def test_verify_ss56_cli(capsys):
    code, payload = run_json(
        ["verify", "ss56", "--genus", "1", "--c", "1"], capsys
    )
    assert code == cli.EXIT_OK
    assert payload["report"]["pass"] is True
    assert payload["report"]["residual"] == []
    assert payload["report"]["vacuous"] is True


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
    ],
    ids=["rseries-kmax", "graphs-genus", "pf-qmax", "pf-zmax"],
)
def test_bad_sizes_are_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unexpected_error_exit(capsys, monkeypatch):
    def boom(genus, legs):
        raise IndexError("fabricated")

    monkeypatch.setattr(cli, "enumerate_graphs", boom)
    code, out, err = run(["graphs", "--genus", "2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert err == "internal error: IndexError: fabricated\n"


def test_verify_failure_exit(capsys, monkeypatch):
    class FakeResidual:
        def is_zero(self):
            return False

    monkeypatch.setattr(cli, "verify_pf", lambda i, qmax, zmax: FakeResidual())
    code, payload = run_json(["verify", "pf"], capsys)
    assert code == cli.EXIT_VERIFY
    assert payload["pass"] is False


def test_internal_failure_exit(capsys, monkeypatch):
    def boom(i, qmax, zmax):
        raise ConsistencyError("fabricated breakage")

    monkeypatch.setattr(cli, "verify_pf", boom)
    code, out, err = run(["verify", "pf"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert "internal consistency failure" in err


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
        addends = addends + RingElem.from_json(entry["value"])
        for dec in entry["decorations"]:
            assert set(dec) == {"labels", "aut_order", "value"}
            assert all(lab in (0, 1, 2) for lab in dec["labels"])
    assert addends == total
    assert total.eval_at(1, 0, 1).as_rational() == F(1, 1920)
