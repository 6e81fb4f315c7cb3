"""Quick self-check of the benchmark itself (a few seconds).

Usage, from the root of a kp2 checkout:

    python3 perfbench/selfcheck.py

It runs ``kp2 fg --genus 2 --kmax 3``, which prints the same exact genus-2
total as the fg-g2 workload in under a second, through the benchmark's
runner, gate and tracer, and checks that:

* the untraced and traced outputs pass the fg-g2 gate and are equal;
* the gate fails on a deliberately wrong expected value, and on wrong or
  vacuous outputs of the other workloads;
* a process stopped and continued for calibration prints the same result;
* a bad exit code and a timeout are counted as failures;
* the tracer reports every per-layer metric named in BENCHMARK.json, and
  BENCHMARK.json names exactly the workloads run.py defines.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

FAST_FG = ("fg", "--genus", "2", "--kmax", "3")


class Checks:
    def __init__(self):
        self.failures = 0

    def __call__(self, ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures += 1


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "kp2" / "cli.py").is_file():
        print("error: run from the root of a kp2 checkout", file=sys.stderr)
        return 2
    expected = json.loads((run.HERE / "expected.json").read_text())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    runner = run.Runner(root, time.monotonic() + 120)
    check = Checks()

    check(sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    plain = run.checked(runner.kp2(FAST_FG), "fg-g2", expected)
    check(not plain["problems"], f"fg --kmax 3 passes the fg-g2 gate {plain['problems']}")

    wrong = copy.deepcopy(expected)
    wrong["fg-g2"]["total"][0]["coeff"]["a"] = "1/7"
    check(bool(run.gate("fg-g2", plain["payload"], wrong)),
          "the gate fails on a wrong expected fg-g2 total")
    bad = copy.deepcopy(plain["payload"])
    bad["total"] = bad["total"][1:]
    check(len(run.gate("fg-g2", bad, expected)) >= 2,
          "the gate fails a truncated total against both the frozen value and the closed form")

    pointed = {"insertions": ["H1", "H1"],
               "total": copy.deepcopy(expected["pointed-g2"]["total"])}
    check(not run.gate("pointed-g2", pointed, expected), "frozen pointed-g2 total passes")
    pointed["total"][0]["coeff"]["b"] = "1/2"
    check(bool(run.gate("pointed-g2", pointed, expected)),
          "the gate fails a pointed-g2 total with a wrong zeta part")

    census = {"count": 181, "graphs": [{"signature": s, "aut_order": a}
                                       for s, a in expected["census-g3"]["graphs"]]}
    check(not run.gate("census-g3", census, expected), "frozen census-g3 list passes")
    census["graphs"][5]["aut_order"] += 1
    check(bool(run.gate("census-g3", census, expected)),
          "the gate fails a census with one wrong automorphism order")

    anomaly = {"report": {"pass": True, "lhs": expected["anomaly-g1"]["lhs"],
                          "rhs": expected["anomaly-g1"]["rhs"], "residual": []}}
    check(not run.gate("anomaly-g1", anomaly, expected), "frozen anomaly-g1 sides pass")
    vacuous = {"report": {"pass": True, "lhs": [], "rhs": [], "residual": []}}
    check(any("vacuous" in p for p in run.gate("anomaly-g1", vacuous, expected)),
          "the gate fails a vacuous anomaly identity")

    slice_s, run.SLICE_S = run.SLICE_S, 0.05
    paused = run.checked(runner.kp2(FAST_FG), "fg-g2", expected)
    run.SLICE_S = slice_s
    check(paused.get("payload") == plain["payload"] and not paused["problems"],
          "a process paused for calibration prints the same exact result")
    check(paused["kernel"][0] > plain["kernel"][0] > 0 and run.scale(paused, 1.0) > 0,
          "the paused process gets more calibration blocks than the unpaused one")

    usage = run.checked(runner.kp2(("fg", "--genus", "1")), "fg-g2", expected)
    check(usage["exit_code"] == 2 and bool(usage["problems"]),
          "a run with a nonzero exit code counts as failed")
    expired = run.Runner(root, time.monotonic())
    late = run.checked(expired.kp2(FAST_FG), "fg-g2", expected)
    check(late["timed_out"] and bool(late["problems"]), "a timed-out run counts as failed")

    traced = run.checked(runner.traced(FAST_FG), "fg-g2", expected)
    check(not traced["problems"], f"the traced run passes the gate {traced['problems']}")
    check(traced.get("payload") == plain["payload"], "traced output equals untraced output")
    text = traced["files"]["trace.json"]
    trace = json.loads(text) if text else {"metrics": {}, "spans": []}
    names = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_ratio"}
    check(names == set(trace["metrics"]),
          "the tracer reports exactly the per-layer metrics of BENCHMARK.json")
    check(all(run._unit(m["name"]) == m["unit"] for m in bench["per_layer"]),
          "run.py reports each per-layer metric in the unit BENCHMARK.json gives")
    m = trace["metrics"]
    check(m.get("localization.graphs") == 7 and m.get("localization.orbits") == 36
          and m.get("localization.graph_contribution.calls") == 36,
          "genus 2 has 7 graphs and 36 decorated orbits, each summed once")
    check(m.get("rseries.solve_linear.calls", 0) > 0 and m.get("lring.mul.calls", 0) > 0
          and m.get("scalars.cyc_mul.calls", 0) > 0, "context and ring layers are counted")
    roots = [s for s in trace["spans"] if s["parent"] is None]
    check(len(roots) == 1 and roots[0]["name"] == "cli.main"
          and all(s["self"] > -1e-9 for s in trace["spans"]),
          "spans form one tree under cli.main with nonnegative self time")

    print(f"{check.failures} failed" if check.failures else "all checks passed")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
