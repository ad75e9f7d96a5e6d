"""Run the repo benchmark.

    python3 bench/run.py                      every workload, end to end
    python3 bench/run.py --trace              ... then each again, traced
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --selfcheck          two sets must agree

Every workload phase runs in a fresh subprocess in its own process group,
under a hard timeout; on expiry the group is killed, leftovers are looked for,
and the run is recorded with everything outstanding as failed -- never
retried.  Each metric is printed by name with its unit; with ``--workload``
the last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is non-zero when an output check
fails.  See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spec, stats  # noqa: E402
from bench.worker import RESULT_MARK  # noqa: E402

#: Set-up is timed this many times per run (fresh interpreters); the median
#: is reported.  The measured run's own set-up is one of them.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
#: The traced run is preceded by an untraced one of this share of the window,
#: which is what ``trace.overhead_frac`` compares against.
BASELINE_SHARE = 1.0 / 3.0


def measure_timeout_s(seconds: float) -> float:
    """Twice the window, plus a fixed allowance for set-up, the reference
    cycles of the sim workloads, drain (<= 15 s) and teardown."""
    return 2.0 * seconds + 20.0


# ----------------------------------------------------------------------
# Containment
# ----------------------------------------------------------------------
def _session_members(session: int) -> list[int]:
    """Pids still alive in a session (the worker and anything it spawned)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members


#: multiprocessing's resource tracker outlives its parent by a few ms; only
#: what is still there after this long is an orphan.
EXIT_GRACE_S = 2.0


def _kill_session(session: int, grace_s: float = 0.0) -> list[int]:
    """SIGKILL every member still there after ``grace_s``; return their pids."""
    deadline = time.monotonic() + grace_s
    while _session_members(session) and time.monotonic() < deadline:
        time.sleep(0.02)
    leftovers = _session_members(session)
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while _session_members(session) and time.monotonic() < deadline:
        time.sleep(0.02)
    return leftovers


def run_worker(
    workload: str, seed: int, seconds: float, trace: int, phase: str
) -> dict:
    """One contained worker phase.  Always returns a record; ``problems``
    is non-empty when the phase timed out, crashed or left orphans."""
    timeout_s = SETUP_TIMEOUT_S if phase == "setup" else measure_timeout_s(seconds)
    cmd = [
        sys.executable, str(spec.BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--phase", phase, "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # own session + group: killable as a unit
    )
    problems = []
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
    leftovers = _kill_session(proc.pid, 0.0 if timed_out else EXIT_GRACE_S)
    if timed_out:
        out, _ = proc.communicate()
        problems.append(
            f"{phase} phase exceeded its {timeout_s:.0f}s timeout; "
            f"killed {len(leftovers)} process(es)"
        )
    elif leftovers:
        # The worker itself had exited: whatever was left is an orphan.
        problems.append(f"worker left {len(leftovers)} orphan process(es) behind")
    record = None
    for line in out.splitlines():
        if line.startswith(RESULT_MARK):
            record = json.loads(line[len(RESULT_MARK):])
    if record is None:
        if not problems:
            problems.append(f"worker exited {proc.returncode} without a result")
        record = {"metrics": {}, "attempted": 0, "failed": 0, "info": {},
                  "problems": [], "machine": {}}
    record["problems"] = problems + record["problems"]
    return record


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = run_worker(workload, seed, seconds, 0, "setup")
        if probe["problems"]:
            probe["problems"] = [f"set-up probe: {p}" for p in probe["problems"]]
            return probe
        setups.append(probe["metrics"]["setup_s"])
    record = run_worker(workload, seed, seconds, 0, "measure")
    if "setup_s" in record["metrics"]:
        setups.append(record["metrics"]["setup_s"])
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["info"]["setup_samples_s"] = setups
    return record


def run_traced(
    workload: str, seed: int, seconds: float, baseline: Optional[dict] = None
) -> dict:
    """The traced run; ``baseline`` is an untraced record of the same code
    (one of a shortened window is made here when none is given)."""
    if baseline is None:
        baseline = run_worker(
            workload, seed, max(1.0, seconds * BASELINE_SHARE), 0, "measure"
        )
        if baseline["problems"]:
            baseline["problems"] = [
                f"untraced baseline: {p}" for p in baseline["problems"]
            ]
            return baseline
    record = run_worker(workload, seed, seconds, 1, "measure")
    plain = baseline["info"].get("rate_for_overhead")
    traced = record["info"].get("rate_for_overhead")
    if plain and traced and "trace.overhead_frac" in record["metrics"]:
        record["metrics"]["trace.overhead_frac"] = plain / traced - 1.0
    return record


def finish(workload: str, trace: int, seconds: float, record: dict) -> dict:
    """Check the record against the metric table and give it its final shape."""
    table = spec.metric_table(bool(trace))
    problems = list(record["problems"])
    attempted, failed = record["attempted"], record["failed"]
    if attempted < 1:
        # Nothing came back: everything the schedule held counts as failed.
        rate = spec.OFFERED_RATE.get(workload)
        attempted = failed = max(1, round(rate * seconds)) if rate else 1
    missing = sorted(set(table) - set(record["metrics"]))
    extra = sorted(set(record["metrics"]) - set(table))
    if missing and record["metrics"]:
        problems.append(f"metrics missing: {missing}")
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    return {
        "workload": workload,
        "trace": trace,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": record["metrics"][name], "unit": table[name]["unit"]}
            for name in table if name in record["metrics"]
        },
        "problems": list(dict.fromkeys(problems)),
        "info": record["info"],
        "machine": record["machine"],
    }


def save(result: dict) -> None:
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    kind = "layers" if result["trace"] else "e2e"
    path = spec.OUT_DIR / f"{result['workload']}.{kind}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")


def show(result: dict) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}: {kind} ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={stats.failed_share(result['failed'], result['attempted']):.6f}")
    for key, value in result["info"].items():
        if key != "rate_for_overhead":
            print(f"  {key}: {value}")
    print(f"  machine: {json.dumps(result['machine'])}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  verdict: {'ok' if result['correct'] else 'FAILED'}", flush=True)


def run_one(
    workload: str, seed: int, seconds: float, trace: int,
    baseline: Optional[dict] = None,
) -> tuple[dict, dict]:
    """Returns (final result, raw worker record)."""
    if trace:
        record = run_traced(workload, seed, seconds, baseline)
    else:
        record = run_untraced(workload, seed, seconds)
    result = finish(workload, trace, seconds, record)
    save(result)
    show(result)
    return result, record


# ----------------------------------------------------------------------
# Sets of runs
# ----------------------------------------------------------------------
def run_set(seed: int, seconds: float, trace: bool) -> list[dict]:
    results = []
    for workload in spec.WORKLOADS:
        result, record = run_one(workload, seed, seconds, 0)
        results.append(result)
        if trace and result["correct"]:
            results.append(run_one(workload, seed, seconds, 1, record)[0])
    return results


def compare_sets(first: list[dict], second: list[dict]) -> list[str]:
    """Where two sets of the same code disagree beyond the benchmark's bounds."""
    complaints = []
    for a, b in zip(first, second):
        workload = a["workload"]
        for name, meta in spec.END_TO_END.items():
            if name not in a["metrics"] or name not in b["metrics"]:
                complaints.append(f"{workload}.{name}: not reported")
                continue
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if workload.startswith("sim_") and name in spec.EXACT_ON_SIM:
                print(f"  {workload + '.' + name:<40} {x:>14.6g} {y:>14.6g} "
                      f"{'equal' if x == y else 'DIFFERENT'} (exact)")
                if x != y:
                    complaints.append(f"{workload}.{name}: {x!r} != {y!r} (exact)")
                continue
            worse = max(stats.worsening(x, y, meta["better"]),
                        stats.worsening(y, x, meta["better"]))
            verdict = "ok" if worse <= meta["bound"] else "OUT OF BOUND"
            print(f"  {workload + '.' + name:<40} {x:>14.6g} {y:>14.6g} "
                  f"{worse:>7.1%} (bound {meta['bound']:.0%}) {verdict}")
            if worse > meta["bound"]:
                complaints.append(
                    f"{workload}.{name}: {x:.6g} vs {y:.6g} differ by "
                    f"{worse:.1%} > bound {meta['bound']:.0%}"
                )
        if workload.startswith("sim_"):
            x = a["info"].get("msgs_per_agreement")
            y = b["info"].get("msgs_per_agreement")
            print(f"  {workload + '.msgs_per_agreement':<40} {x:>14.6g} {y:>14.6g} "
                  f"{'equal' if x == y else 'DIFFERENT'} (exact)")
            if x != y:
                complaints.append(
                    f"{workload}.msgs_per_agreement: {x!r} != {y!r} (exact)"
                )
    return complaints


def selfcheck(seed: int, seconds: float) -> int:
    first = run_set(seed, seconds, trace=False)
    second = run_set(seed, seconds, trace=False)
    print("== selfcheck: set 1 vs set 2 ==")
    complaints = compare_sets(first, second)
    complaints += [
        f"{r['workload']}: {p}" for r in first + second for p in r["problems"]
    ]
    for complaint in complaints:
        print(f"  SELFCHECK FAILED: {complaint}")
    print(f"selfcheck: {'ok' if not complaints else 'FAILED'}")
    return 1 if complaints else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="also (with --workload: only) do the traced run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets; fail unless they agree")
    args = parser.parse_args()

    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.workload is None:
        results = run_set(args.seed, args.seconds, bool(args.trace))
        return 0 if all(r["correct"] for r in results) else 1

    result, _record = run_one(args.workload, args.seed, args.seconds, args.trace)
    if not result["metrics"]:
        return 1  # nothing was measured: no result line
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
