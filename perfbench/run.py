"""kp2 benchmark: fixed exact CLI problems, timed as separate processes.

Usage (from the root of a kp2 checkout):

    python3 perfbench/run.py --workload fg-g2 --seed 1 --seconds 27 --trace 0

Each workload is one kp2 command with a frozen exact result.  A run is a
closed loop with one client: rounds of one workload process plus a few
import-only processes, in an order shuffled by --seed, repeated while the
next round still fits in --seconds (at least one round).  Every process
starts in a fresh temporary directory under the checkout, with KP2_THREADS
removed from its environment; its CPU time and peak RSS come from os.wait4.
Every workload output is parsed and checked against perfbench/expected.json.

The host's speed drifts by tens of percent within seconds, so each process
is timed against a fixed calibration kernel (pure Python, no kp2 code) run
by the harness on the same CPU: before the process starts, after it ends,
and every second in between while the process is stopped.  Each time is
reported at the reference host speed (the reference kernel time over the
mean kernel time measured with that process), then the median is taken.
The raw times are kept in the report file.

--trace 0 reports the end-to-end metrics (medians over the run's samples).
--trace 1 alternates untraced and traced processes (tracer.py), checks that
both print the same exact result, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller report (environment, every sample,
load averages per round, spans) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # the whole run, traced or not, ends before this
SETUP_PROBES_PER_ROUND = 3
SETUP_ARGS = ("--help",)  # imports the whole CLI, computes nothing
SLICE_S = 1.0  # a measured process runs this long between calibration blocks
CALIBRATION_S = 0.1  # kernel time of one calibration block
# Wall (and CPU) seconds of one calibration_kernel() call on the reference
# machine (2-core Intel Xeon, Python 3.11.7) in a quiet phase of its host.
REFERENCE_KERNEL_S = 0.0050

WORKLOADS = {
    "fg-g2": ("fg", "--genus", "2"),
    "pointed-g2": ("correlator", "--genus", "2", "--legs", "H1,H1"),
    "census-g3": ("graphs", "--genus", "3", "--legs", "1"),
    "anomaly-g1": ("verify", "ss56", "--genus", "1", "--c", "3"),
}

# The genus-2 series in closed form: {(L power, X power): coefficient}.
F2_CLOSED_FORM = {
    (-3, 0): Fraction(400, 17280), (0, 0): Fraction(-959, 17280),
    (3, 0): Fraction(784, 17280), (6, 0): Fraction(-216, 17280),
    (0, 1): Fraction(-1, 3), (-3, 1): Fraction(5, 24), (3, 1): Fraction(13, 96),
    (0, 2): Fraction(-1, 2), (-3, 2): Fraction(5, 8),
    (-3, 3): Fraction(5, 8),
}


# -- correctness gate --------------------------------------------------------

def ring_value(terms) -> dict:
    """A ring element's JSON terms as {exponents: (a, b)}, exact and nonzero.

    exponents is the sorted tuple of (generator, power) pairs of a term, so
    the X form ({"L", "X", "c"}) and the A2 form ({"L", "A2", "c"}) both fit.
    """
    out = {}
    for t in terms:
        coeff = (Fraction(t["coeff"]["a"]), Fraction(t["coeff"]["b"]))
        if coeff != (0, 0):
            out[tuple(sorted((k, v) for k, v in t.items() if k != "coeff"))] = coeff
    return out


def _check_equal(problems, label, got, want):
    if got != want:
        problems.append(f"mismatch: {label}")


def gate(workload: str, payload: dict, expected: dict) -> list[str]:
    """Problems found in one workload output; empty when it is exact."""
    problems: list[str] = []
    want = expected[workload]
    if workload == "fg-g2":
        total = ring_value(payload["total"])
        _check_equal(problems, "frozen total", total, ring_value(want["total"]))
        _check_equal(problems, "frozen total_a2", ring_value(payload["total_a2"]),
                     ring_value(want["total_a2"]))
        closed = {(("L", l), ("X", x), ("c", 0)): (c, Fraction(0))
                  for (l, x), c in F2_CLOSED_FORM.items()}
        _check_equal(problems, "closed form of F_2", total, closed)
        at_one = sum(a for key, (a, b) in total.items() if dict(key)["X"] == 0)
        if at_one != Fraction(1, 1920):
            problems.append(f"F_2(1, 0) = {at_one}, not 1/1920")
    elif workload == "pointed-g2":
        _check_equal(problems, "frozen insertions", payload["insertions"], want["insertions"])
        _check_equal(problems, "frozen total", ring_value(payload["total"]),
                     ring_value(want["total"]))
    elif workload == "census-g3":
        _check_equal(problems, "frozen count", payload["count"], want["count"])
        pairs = [[g["signature"], g["aut_order"]] for g in payload["graphs"]]
        _check_equal(problems, "frozen (signature, aut_order) list", pairs, want["graphs"])
    elif workload == "anomaly-g1":
        report = payload["report"]
        if report["pass"] is not True:
            problems.append("the identity did not pass")
        lhs = ring_value(report["lhs"])
        if not lhs:
            problems.append("lhs is zero, so the identity is vacuous")
        _check_equal(problems, "frozen lhs", lhs, ring_value(want["lhs"]))
        _check_equal(problems, "frozen rhs", ring_value(report["rhs"]), ring_value(want["rhs"]))
    else:
        raise KeyError(workload)
    return problems


# -- host speed ---------------------------------------------------------------

def calibration_kernel() -> dict:
    """Fixed exact work with no kp2 code: a product of two Fraction polynomials."""
    a = [Fraction(i + 1, 2 * i + 3) for i in range(40)]
    b = [Fraction(3 * i - 7, i + 5) for i in range(40)]
    out: dict = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def calibrate(seconds: float = CALIBRATION_S) -> tuple[int, float, float]:
    """Calls calibration_kernel() for about `seconds`: (calls, wall s, CPU s)."""
    calls, w0, c0 = 0, time.perf_counter(), time.process_time()
    while True:
        calibration_kernel()
        calls += 1
        wall = time.perf_counter() - w0
        if wall >= seconds:
            return calls, wall, time.process_time() - c0


# -- running one process -----------------------------------------------------

class Runner:
    """Starts kp2 processes from one checkout and accounts for each."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        self.tmp_base = root / ".perfbench_tmp"
        self.env = {k: v for k, v in os.environ.items() if k != "KP2_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")

    def launch(self, argv, extra_files=(), pause=True) -> dict:
        """Run argv in a fresh directory; wall, CPU, peak RSS, exit code, stdout.

        The host speed is measured around the process: a calibration block
        runs before it starts and after it ends, and, with pause, every
        SLICE_S the process is stopped (SIGSTOP) for one more block and then
        continued.  The wall time excludes those pauses; "kernel" holds
        (calls, wall s, CPU s) summed over the blocks.  A traced process is
        not paused, because its own clock would count the pauses.

        extra_files names files the process writes in its directory; their
        contents are returned under "files".
        """
        self.tmp_base.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=self.tmp_base))
        try:
            with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
                timeout = max(self.deadline - time.monotonic(), 0.0)
                blocks = [calibrate()]
                t0 = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *argv], cwd=workdir,
                                        env=self.env, stdout=out, stderr=err)
                fired = threading.Event()

                def kill():
                    fired.set()
                    proc.kill()

                killer = threading.Timer(timeout, kill)
                killer.start()
                try:
                    status, usage, t_end, paused = _wait(proc.pid, blocks if pause else None)
                    wall = t_end - t0 - paused
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    blocks.append(calibrate())
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
            files = {}
            for name in extra_files:
                path = workdir / name
                files[name] = path.read_text() if path.exists() else None
            return {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "kernel": [sum(column) for column in zip(*blocks)],
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "exit_code": proc.returncode,
                "timed_out": fired.is_set(),
                "stdout": (workdir / "stdout").read_text(),
                "stderr": (workdir / "stderr").read_text()[-2000:],
                "files": files,
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def kp2(self, args) -> dict:
        return self.launch(["-m", "kp2.cli", *args])

    def traced(self, args) -> dict:
        return self.launch([str(HERE / "tracer.py"), "trace.json", *args],
                           extra_files=("trace.json",), pause=False)


def _wait(pid: int, blocks) -> tuple:
    """Reaps pid: (wait status, rusage, exit time, paused seconds).

    Unless blocks is None, the process is stopped every SLICE_S while one
    calibration block runs, and the block is appended to blocks.  The
    harness and its children share one CPU (see main), so the blocks time
    the same core the process runs on.
    """
    paused = 0.0
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            if select.select([pidfd], [], [], None if blocks is None else SLICE_S)[0]:
                t_end = time.perf_counter()
                _, status, usage = os.wait4(pid, 0)
                return status, usage, t_end, paused
            t_stop = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it ended before the signal took effect
                return status, usage, t_stop, paused
            blocks.append(calibrate())
            os.kill(pid, signal.SIGCONT)
            paused += time.perf_counter() - t_stop
    finally:
        os.close(pidfd)


def checked(sample: dict, workload: str, expected: dict) -> dict:
    """Adds "problems" to a workload sample: exit code, timeout, exactness."""
    problems = []
    if sample["timed_out"]:
        problems.append("timed out")
    elif sample["exit_code"] != 0:
        problems.append(f"exit code {sample['exit_code']}: {sample['stderr'][-300:]}")
    else:
        try:
            sample["payload"] = json.loads(sample["stdout"])
            problems += gate(workload, sample["payload"], expected)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    sample["problems"] = problems
    return sample


# -- environment ----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


# -- the measured loop --------------------------------------------------------

def run_rounds(seconds: float, rng: random.Random, round_steps, do_step) -> list[dict]:
    """Repeat shuffled rounds while the next one is expected to fit in seconds."""
    start = time.monotonic()
    rounds: list[dict] = []
    while True:
        steps = list(round_steps)
        rng.shuffle(steps)
        record = {"order": steps, "load_before": os.getloadavg()}
        t0 = time.monotonic()
        for step in steps:
            do_step(step)
        record["seconds"] = time.monotonic() - t0
        record["load_after"] = os.getloadavg()
        rounds.append(record)
        estimate = statistics.median(r["seconds"] for r in rounds)
        if time.monotonic() - start + estimate > seconds:
            return rounds


def median_of(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def scale(sample: dict, seconds: float, clock: str = "wall") -> float:
    """seconds of this sample at the reference host speed.

    The factor is REFERENCE_KERNEL_S over the mean kernel time of the
    sample's own calibration blocks, on the same clock (wall or CPU).
    """
    calls, wall, cpu = sample["kernel"]
    return seconds * REFERENCE_KERNEL_S * calls / (wall if clock == "wall" else cpu)


def measure(runner, workload, expected, seconds, rng, report) -> dict:
    """Untraced run: end-to-end metrics."""
    args = WORKLOADS[workload]
    samples, probes = [], []
    warmup = runner.kp2(SETUP_ARGS)  # compiles bytecode; not measured
    if warmup["exit_code"] != 0:
        raise SystemExit(f"kp2 does not start: {warmup['stderr'][-500:]}")

    def step(kind):
        if runner.expired():
            return
        if kind == "run":
            samples.append(checked(runner.kp2(args), workload, expected))
        else:
            probe = runner.kp2(SETUP_ARGS)
            if probe["exit_code"] != 0:
                raise SystemExit(f"import-only kp2 failed: {probe['stderr'][-500:]}")
            probes.append(probe)

    report["rounds"] = run_rounds(seconds, rng, ["run"] + ["setup"] * SETUP_PROBES_PER_ROUND, step)
    report["samples"] = [_summary(s) for s in samples]
    report["setup_samples"] = [{k: p[k] for k in ("wall_s", "kernel")} for p in probes]
    report["raw_medians"] = {
        "wall_s": median_of(samples, "wall_s"),
        "cpu_s": median_of(samples, "cpu_s"),
        "setup_s": median_of(probes, "wall_s"),
    }
    metrics = {
        "wall_s": (statistics.median(scale(s, s["wall_s"]) for s in samples), "s"),
        "cpu_s": (statistics.median(scale(s, s["cpu_s"], "cpu") for s in samples), "s"),
        "peak_rss_mb": (median_of(samples, "peak_rss_mb"), "MiB"),
        "setup_s": (statistics.median(scale(p, p["wall_s"]) for p in probes), "s"),
    }
    return {"samples": samples, "metrics": metrics}


def measure_traced(runner, workload, expected, seconds, rng, report) -> dict:
    """Traced run: per-layer metrics, and the traced/untraced time ratio."""
    args = WORKLOADS[workload]
    plain, traced = [], []

    def step(kind):
        if runner.expired():
            return
        if kind == "plain":
            plain.append(checked(runner.kp2(args), workload, expected))
            return
        sample = checked(runner.traced(args), workload, expected)
        text = sample["files"]["trace.json"]
        if text is None:
            sample["problems"].append("the tracer wrote no trace")
        else:
            sample["trace"] = json.loads(text)
        traced.append(sample)

    report["rounds"] = run_rounds(seconds, rng, ["plain", "traced"], step)
    samples = plain + traced
    reference = plain[0].get("payload")
    for s in traced:
        if "payload" in s and s["payload"] != reference:
            s["problems"].append("traced output differs from the untraced output")
    report["samples"] = [_summary(s) for s in samples]
    with_trace = [s for s in traced if "trace" in s]
    metrics = {}
    if with_trace:
        names = with_trace[0]["trace"]["metrics"]
        for name in names:
            unit = _unit(name)
            values = [s["trace"]["metrics"][name] for s in with_trace]
            if unit == "s":
                values = [scale(s, v) for s, v in zip(with_trace, values)]
            # counts repeat exactly run to run; median_low keeps them whole numbers
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (middle(values), unit)
        report["trace"] = {k: v for k, v in with_trace[-1]["trace"].items() if k != "spans"}
        report["spans"] = with_trace[-1]["trace"]["spans"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(scale(s, s["wall_s"]) for s in traced)
        / statistics.median(scale(s, s["wall_s"]) for s in plain), "ratio")
    return {"samples": samples, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _summary(sample: dict) -> dict:
    keep = ("wall_s", "cpu_s", "peak_rss_mb", "exit_code", "timed_out", "problems", "kernel")
    return {k: sample[k] for k in keep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kp2" / "cli.py").is_file():
        print(f"error: no kp2 sources under {root / 'src'}; run from a kp2 checkout",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    # On SIGTERM, unwind through Runner.launch so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The harness and every process it starts share one CPU, so the
    # calibration blocks time the core the measured process runs on (_wait).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, time.monotonic() + HARD_LIMIT_S)
    rng = random.Random(args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": list(WORKLOADS[args.workload]),
              "environment": environment(root)}
    measured = (measure_traced if args.trace else measure)(
        runner, args.workload, expected, args.seconds, rng, report)

    samples = measured["samples"]
    failed = sum(1 for s in samples if s["problems"])
    report["fail_ratio"] = failed / len(samples)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in measured["metrics"].items()}
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    report["result"] = result

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    print(f"report: {out_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
