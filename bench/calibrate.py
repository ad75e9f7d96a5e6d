"""Noise calibration: run every workload under N seeds, report the spread.

    python3 bench/calibrate.py [--runs 10] [--seconds S] [--workload W ...]

Prints, per workload and end-to-end metric, the median, the quartiles and the
interquartile distance as a share of the median -- the same spread the driver
computes -- next to the metric's bound.  A bound in ``BENCHMARK.json`` must
not be tighter than the spread seen here; the table in ``bench/README.md``
is this script's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spec, stats  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(spec.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    args = parser.parse_args()

    raw: dict[str, dict[str, list[float]]] = {}
    worst: dict[str, float] = {name: 0.0 for name in spec.END_TO_END}
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workload or spec.WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name in spec.END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = one_run(workload, seed, args.seconds)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        for name, series in values.items():
            q1, _q2, q3 = statistics.quantiles(series, n=4)
            spread = stats.quartile_spread(series)
            worst[name] = max(worst[name], spread)
            print(f"| {workload} | {name} | {statistics.median(series):.6g} | "
                  f"{q1:.6g} | {q3:.6g} | {spread:.2%} | "
                  f"{spec.END_TO_END[name]['bound']:.0%} |", flush=True)
    print()
    for name, spread in worst.items():
        bound = spec.END_TO_END[name]["bound"]
        note = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
        print(f"worst spread {name}: {spread:.2%} (bound {bound:.0%}){note}")
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (spec.OUT_DIR / "calibration.json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
