"""Sharded-kernel scaling: wall seconds and events/s vs shard count.

The sharded kernel's gate is **correctness** -- this bench first replays a
fully *traced* n=25 agreement run serially and sharded and asserts the
ordered trace digests, decision rows, and event counts are bit-identical.
Only then does it time the *untraced* variant of the same run (the shape E9
actually executes) at each shard count.  The timings are *provenance*: they
stamp what the keyed event loop plus the conservative-synchronization
rounds cost on the machine that produced ``BENCH_perf.json``.  On a
single-core container sharding cannot win (there is no second core to
spend the coordination on), and at n=25 the process transport's pipe
traffic still eats what a second core gives.  The case the process
transport is kept for is timed last, where there are two cores to use:
n=51, ``shards=2``, against serial (``shards2_process_speedup_vs_serial``,
digest equality asserted first like everything else here).
"""

from __future__ import annotations

import os
import time

from repro.core.params import ProtocolParams
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.sim.trace import trace_digest

from benchmarks.conftest import print_rows
from repro.harness.benchrecord import record_bench_result

# E9-style workload: one big-n agreement run to the horizon.
BENCH_N = 25
BENCH_SEED = 0
SHARD_COUNTS = (1, 2, 4)
#: Where two shard processes out-run the serial kernel on two cores.
PROCESS_N = 51


def _timed_run(
    shards: int | None,
    transport: str = "inline",
    trace: bool = False,
    n: int = BENCH_N,
) -> dict:
    """One agreement run at ``n``; returns timing + identity facts."""
    params = ProtocolParams(n=n, f=1, delta=1.0, rho=1e-4)
    config = ScenarioConfig(
        params=params,
        seed=BENCH_SEED,
        trace=trace,
        shards=shards,
        shard_transport=transport,
    )
    start = time.perf_counter()
    cluster = Cluster(config)
    try:
        cluster.propose(general=0, value="v")
        cluster.run_for(params.delta_agr + 10 * params.d)
        wall_s = time.perf_counter() - start
        events = (
            cluster.events_executed()
            if cluster.sharded
            else cluster.sim.events_executed
        )
        return {
            "shards": shards or 1,
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "digest": trace_digest(cluster.tracer),
            "decisions": sorted(
                (node_id, repr(dec.value))
                for node_id, dec in cluster.latest_decision_per_node(0).items()
            ),
        }
    finally:
        if cluster.sharded:
            cluster.close()


def _best_of(
    rounds: int, shards: int | None, transport: str = "inline", n: int = BENCH_N
) -> dict:
    """Best wall-clock of ``rounds`` identical runs (damps container noise).

    Every round is asserted bit-identical to the first, so repetition never
    hides a determinism bug behind a fast outlier.
    """
    best = _timed_run(shards, transport, n=n)
    for _ in range(rounds - 1):
        again = _timed_run(shards, transport, n=n)
        assert again["digest"] == best["digest"]
        assert again["events"] == best["events"]
        if again["wall_s"] < best["wall_s"]:
            best = again
    return best


def bench_shard_scaling(benchmark):
    # --- Correctness gate: full ordered trace digests must match bit for
    # bit before any timing is recorded.
    gate_serial = _timed_run(None, trace=True)
    for shards, transport in ((2, "inline"), (4, "inline"), (2, "process")):
        run = _timed_run(shards, transport=transport, trace=True)
        assert run["digest"] == gate_serial["digest"], (
            f"shards={shards} ({transport}) diverged from serial"
        )
        assert run["decisions"] == gate_serial["decisions"]
        assert run["events"] == gate_serial["events"]

    # --- Timing rows: the untraced workload (what E9 actually runs).
    serial = _best_of(2, None)
    sharded = [_best_of(2, k) for k in SHARD_COUNTS]
    process2 = _timed_run(2, transport="process")
    for run in (*sharded, process2):
        assert run["events"] == serial["events"]
        assert run["decisions"] == serial["decisions"]

    # --- The kept path's own case: n=51 over two shard processes.
    process_speedup = {}
    if (os.cpu_count() or 1) >= 2:
        big_gate = _timed_run(None, trace=True, n=PROCESS_N)
        big_process = _timed_run(2, transport="process", trace=True, n=PROCESS_N)
        for fact in ("digest", "decisions", "events"):
            assert big_process[fact] == big_gate[fact], f"n={PROCESS_N} {fact} diverged"
        big_serial = _best_of(2, None, n=PROCESS_N)
        big_process = _best_of(2, 2, transport="process", n=PROCESS_N)
        assert big_process["events"] == big_serial["events"]
        process_speedup = {
            "process_n": PROCESS_N,
            "process_n_serial_wall_s": big_serial["wall_s"],
            "process_n_shards2_process_wall_s": big_process["wall_s"],
            "shards2_process_speedup_vs_serial": (
                big_serial["wall_s"] / big_process["wall_s"]
            ),
        }
        print_rows(
            f"Shard scaling: n={PROCESS_N}, shards=2 process vs serial, untraced",
            [process_speedup],
        )

    benchmark.pedantic(lambda: _timed_run(2), rounds=1, iterations=1)

    rows = [
        dict(serial, shards="serial"),
        *sharded,
        dict(process2, shards="2 (process)"),
    ]
    for row in rows:
        row.pop("decisions", None)
        row.pop("digest", None)
    print_rows(f"Shard scaling: n={BENCH_N} agreement run, untraced", rows)

    by_count = {run["shards"]: run for run in sharded}
    record_bench_result(
        "shard_scaling",
        kind="shard",
        n=BENCH_N,
        events=serial["events"],
        serial_wall_s=serial["wall_s"],
        serial_events_per_s=serial["events_per_s"],
        **{
            f"shards{k}_wall_s": by_count[k]["wall_s"]
            for k in SHARD_COUNTS
        },
        **{
            f"shards{k}_speedup_vs_serial": serial["wall_s"] / by_count[k]["wall_s"]
            for k in SHARD_COUNTS
        },
        shards2_overhead_frac=by_count[2]["wall_s"] / serial["wall_s"] - 1.0,
        shards2_process_wall_s=process2["wall_s"],
        **process_speedup,
        digest_equal=True,  # asserted above, on fully traced runs
    )
