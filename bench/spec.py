"""The benchmark's names, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the single list of workloads, end-to-end metrics (with
unit, direction and regression bound) and per-layer metrics; everything that
prints or checks a metric takes its name from here, so the file and the
runner cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

_DOC = json.loads((ROOT / "BENCHMARK.json").read_text())

RUN_SECONDS: int = _DOC["run_seconds"]
#: name -> one-line reason the workload exists.
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in _DOC["workloads"]}
#: name -> {"unit", "better", "bound"}.
END_TO_END: dict[str, dict] = {m["name"]: m for m in _DOC["end_to_end"]}
#: name -> {"unit", "better"}.
PER_LAYER: dict[str, dict] = {m["name"]: m for m in _DOC["per_layer"]}

#: Exact under a fixed seed on the ``sim_*`` workloads (simulated time and
#: counts from a seeded scheduler): ``--selfcheck`` demands equality.
EXACT_ON_SIM = ("decide_mean_d", "commit_p50_ms", "commit_p99_ms")

#: Open-loop Poisson arrival rate of each service workload, commands/s.
OFFERED_RATE = {
    "svc_asyncio_hot": 1200.0,
    "svc_asyncio_fastnet": 100.0,
    "svc_socket_kill": 1000.0,
}

#: Stated latency limit for the service workloads: p99 <= 8d, d = 100 ms.
SLO_P99_MS = 800.0


def metric_table(trace: bool) -> dict[str, dict]:
    """The metrics one run must report: per-layer if traced, else end-to-end."""
    return PER_LAYER if trace else END_TO_END
