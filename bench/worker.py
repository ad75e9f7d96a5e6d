"""One workload, one phase, one fresh interpreter.  Spawned by ``run.py``.

Prints a single JSON line on stdout (``RESULT_MARK`` first) with the metrics,
attempted/failed counts, the checks that did not hold, and an info block.
Kept tiny at module level: the socket backend's children re-import the main
module when they are spawned.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

RESULT_MARK = "BENCH_WORKER_RESULT "


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    from bench import spec, workloads
    from bench.provenance import machine_block
    from bench.tracing import SpanTracer, install

    tracer = None
    if args.trace and args.phase == "measure":
        tracer = SpanTracer()
        if args.workload != "svc_socket_kill":  # its nodes are other processes
            install(tracer)
    result = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        args.spawned_at,
        args.phase == "setup",
        tracer,
    )
    if tracer is not None and tracer.agg:
        tracer.write(
            spec.OUT_DIR / f"{args.workload}.trace.json",
            {"workload": args.workload, "seed": args.seed},
        )
    print(RESULT_MARK + json.dumps({
        "metrics": result.metrics,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "info": result.info,
        "machine": machine_block(args.seed),
    }, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
