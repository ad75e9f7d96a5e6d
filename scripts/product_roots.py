#!/usr/bin/env python
"""Run every product entry point once, small: the roots of the product census.

    python scripts/product_roots.py              # every root, in order
    python scripts/surface.py --allow scripts/surface_allow.txt \\
        --allow scripts/surface_tests_only.txt -- python scripts/product_roots.py

The product is what a user or an operator runs: the registered experiments
(E1-E10, A1-A3), every CLI command, the live-cluster control-plane gate on
both backends, and each benchmark workload.  ``ROOTS`` is the one list of
them.  Under ``scripts/surface.py`` (``./scripts/gates.sh surface_product``)
a ``src/`` function none of them calls is code that only the tests reach,
and fails the gate unless an allowlist names it with a reason.

Each root runs as its own process under a hard timeout; the script prints
one line per root and exits non-zero if any root failed.  Stdlib only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PY = sys.executable
CLI = [PY, "-m", "repro.cli"]

#: Every registered experiment at one seed, through the one engine.
EXPERIMENTS = (
    "from repro.harness.registry import list_experiments, run_experiment\n"
    "for spec in list_experiments():\n"
    "    run_experiment(spec.name, seeds=[0])\n"
)

#: (name, argv, timeout in seconds).  The wall-clock commands use the same
#: time scales as the gates in scripts/gates.sh; each benchmark workload
#: runs traced, as the bench_seam gate runs it, for 3 s.
ROOTS = [
    ("experiments", [PY, "-c", EXPERIMENTS], 300),
    ("constants", CLI + ["constants"], 60),
    ("list-experiments", CLI + ["list-experiments"], 60),
    ("run", CLI + ["run"], 120),
    ("run --seeds", CLI + ["run", "--n", "4", "--seeds", "0", "1",
                           "--workers", "2"], 120),
    ("run --attack", CLI + ["run", "--attack", "equivocate"], 120),
    ("stabilize", CLI + ["stabilize"], 120),
    ("stabilize --seeds", CLI + ["stabilize", "--n", "4", "--garbage", "60",
                                 "--seeds", "0", "1"], 120),
    ("suite smoke", CLI + ["suite", "--preset", "smoke"], 180),
    ("suite smoke --csv", CLI + ["suite", "--preset", "smoke", "--csv"], 180),
    ("suite timelines", CLI + ["suite", "--preset", "timelines",
                               "--seeds", "0"], 180),
    ("suite casts", CLI + ["suite", "--preset", "casts", "--seeds", "0"], 180),
    ("run-async", CLI + ["run-async", "--n", "4", "--f", "1",
                         "--time-scale", "0.05"], 120),
    ("run-socket", CLI + ["run-socket", "--n", "4", "--f", "1",
                          "--time-scale", "0.05"], 120),
    ("chaos", CLI + ["chaos", "--n", "4", "--f", "1",
                     "--time-scale", "0.02"], 120),
    ("serve asyncio", CLI + ["serve", "--backend", "asyncio", "--n", "4",
                             "--f", "1", "--commands", "2000", "--rate",
                             "1000", "--time-scale", "0.1"], 120),
    ("serve socket", CLI + ["serve", "--backend", "socket", "--n", "4",
                            "--f", "1", "--commands", "2000", "--rate",
                            "1000", "--time-scale", "0.1"], 120),
    ("live cluster socket", [PY, "scripts/live_cluster_gate.py",
                             "--backend", "socket"], 180),
    ("live cluster asyncio", [PY, "scripts/live_cluster_gate.py",
                              "--backend", "asyncio"], 180),
] + [
    (f"bench {workload}", [PY, "bench/run.py", "--workload", workload,
                           "--seconds", "3", "--trace", "1"], 240)
    for workload in ("sim_agree", "sim_adversary", "svc_asyncio_hot",
                     "svc_asyncio_fastnet", "svc_socket_kill")
]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (env.get("PYTHONPATH"), os.path.join(REPO, "src")))
    )
    failed = []
    for name, argv, limit in ROOTS:
        started = time.monotonic()
        try:
            status = subprocess.run(
                argv, cwd=REPO, env=env, timeout=limit,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        took = time.monotonic() - started
        print(f"root {name}: exit {status} ({took:.1f} s)", flush=True)
        if status != 0:
            failed.append(name)
    if failed:
        print(f"roots failed: {', '.join(failed)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
