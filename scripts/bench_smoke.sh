#!/usr/bin/env bash
# Local pre-push gate: tier-1 tests + a ~10 second benchmark smoke run that
# regenerates BENCH_perf.json from the kernel micro-benchmarks, checks it is
# well-formed, and diffs the kernel throughput numbers against the committed
# baseline (fail on >20% regression).  Usage:  ./scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== runtime host conformance (Sim + Asyncio + Socket contract) =="
python -m pytest tests/test_runtime.py -q

echo
echo "== asyncio runtime smoke (n=4 f=1, byzantine mirror sender) =="
# d = 50 ms wall: loaded-machine scheduling stalls stay inside the windows.
python -m repro.cli run-async --n 4 --f 1 --time-scale 0.05

echo
echo "== socket runtime smoke (n=4 f=1, byzantine mirror sender, real UDP) =="
# One OS process per node exchanging authenticated UDP datagrams.  The hard
# timeout turns a hung backend into a fast failure instead of wedging CI.
# Node children self-reap when the parent dies (pipe EOF -> clean stop); the
# sleep gives them that window.  The pkill sweep matches *every* spawn-based
# multiprocessing child, so it only runs on dedicated CI runners ($CI set) --
# never on a developer machine, where it could kill unrelated work.
if ! timeout -k 10 120 python -m repro.cli run-socket --n 4 --f 1 --time-scale 0.05; then
    echo "socket runtime smoke FAILED (timed out or unclean exit)" >&2
    sleep 3
    if [ "${CI:-}" != "" ]; then
        pkill -f "from multiprocessing.spawn import spawn_main" 2>/dev/null || true
    fi
    exit 1
fi

echo
echo "== chaos smoke (SIGKILL one node mid-agreement; supervisor heals it) =="
# The self-stabilization claim live: full state loss, scrambled respawn,
# re-convergence on the agreed value, zero orphans.  Same hard-timeout and
# CI-only orphan-sweep discipline as the socket smoke above.
if ! timeout -k 10 120 python -m repro.cli chaos --n 4 --f 1 --time-scale 0.02; then
    echo "chaos smoke FAILED (timed out, no recovery, or unclean exit)" >&2
    sleep 3
    if [ "${CI:-}" != "" ]; then
        pkill -f "from multiprocessing.spawn import spawn_main" 2>/dev/null || true
    fi
    exit 1
fi

echo
echo "== service smoke (replicated command log, open-loop 2k commands) =="
# The pipelined slot-agreement service end-to-end on asyncio: exits
# non-zero unless every correct replica applied the identical sequence.
# Hard timeout + CI-only orphan sweep, same discipline as the smokes above
# (the asyncio backend is in-process, but belt and braces costs nothing).
if ! timeout -k 10 120 python -m repro.cli serve --backend asyncio \
        --n 4 --f 1 --commands 2000 --rate 1000 --time-scale 0.1; then
    echo "service smoke FAILED (timed out, divergence, or lost commands)" >&2
    sleep 3
    if [ "${CI:-}" != "" ]; then
        pkill -f "from multiprocessing.spawn import spawn_main" 2>/dev/null || true
    fi
    exit 1
fi

echo
echo "== resource hygiene (dev mode; a leaked socket or timer fails the test) =="
# -X dev turns on asyncio debug mode and ResourceWarning; any object the GC
# has to close for us (a socket, a never-awaited coroutine) becomes an
# unraisable-exception warning, which the second -W turns into a failure of
# the test that leaked it.  Covers the control plane, the service's fetch
# timers and body store, both carriers and their release heap, and the live
# fault drivers.
python -X dev -W error::ResourceWarning -m pytest \
    -W error::pytest.PytestUnraisableExceptionWarning \
    tests/test_obs.py tests/test_service.py tests/test_runtime.py \
    tests/test_wire_batch.py tests/test_live_faults.py -q

echo
echo "== live cluster control plane gate (/metrics scrape + injected kill + recovery) =="
# The control plane end to end, driven over HTTP like an operator would:
# scrape every node's Prometheus /metrics, POST a FaultScript that
# SIGKILLs a replica mid-workload, then require /status to report the
# supervised respawn and the run to converge to identical logs (which
# needs the f+1 log repair of the revenant).  Same hard-timeout and
# CI-only orphan-sweep discipline as the chaos smoke.
if ! timeout -k 10 180 python scripts/live_cluster_gate.py; then
    echo "live cluster gate FAILED (scrape, injection, recovery, or convergence)" >&2
    sleep 3
    if [ "${CI:-}" != "" ]; then
        pkill -f "from multiprocessing.spawn import spawn_main" 2>/dev/null || true
    fi
    exit 1
fi

echo
echo "== suite smoke (scenario matrix: 2 timelines x 2 seeds) =="
python -m repro.cli suite --preset smoke --workers 2

echo
echo "== shard equivalence smoke (suite smoke rows: serial vs shards=2) =="
python - <<'EOF'
import sys

from repro.harness.suite import SUITE_PRESETS, run_suite

serial = run_suite(SUITE_PRESETS["smoke"])
sharded = run_suite(SUITE_PRESETS["smoke"], shards=2, shard_transport="inline")
if sharded != serial:
    for before, after in zip(serial, sharded):
        if before != after:
            print(f"  serial : {before}", file=sys.stderr)
            print(f"  sharded: {after}", file=sys.stderr)
    sys.exit("sharded suite rows diverged from serial")
digests = sorted({row["digest"] for row in serial if "digest" in row})
print(
    f"ok: {len(serial)} rows bit-identical at shards=2 "
    f"(digests: {', '.join(digests) or '<none>'})"
)
EOF

echo
echo "== repo benchmark seam (bench/ self-tests + one traced run) =="
# bench/ patches transport and service methods *by name*.  A renamed or
# vanished target does not fail the run by itself -- it is one stderr line
# ("trace: ... not found; ... skipped") -- so fail on that line as well as
# on a non-zero exit (span coverage not green, output check failed).
python -m pytest bench/ -q
TRACE_ERR="$(mktemp)"
if ! python3 bench/run.py --workload svc_asyncio_fastnet --trace 1 2>"$TRACE_ERR" \
        || grep -q "not found;" "$TRACE_ERR"; then
    cat "$TRACE_ERR" >&2
    rm -f "$TRACE_ERR"
    echo "traced benchmark run FAILED (non-zero exit, or a patch target was 'not found;')" >&2
    exit 1
fi
rm -f "$TRACE_ERR"

# Stash the committed baseline before the bench run overwrites the file.
BASELINE="$(mktemp)"
trap 'rm -f "$BASELINE"' EXIT
if git show HEAD:BENCH_perf.json > "$BASELINE" 2>/dev/null; then
    HAVE_BASELINE=1
else
    HAVE_BASELINE=0
    echo "(no committed BENCH_perf.json baseline; regression diff skipped)"
fi

echo
echo "== benchmark smoke (kernel + wire micro-benchmarks + asyncio/socket/chaos latency + shard scaling) =="
python -m pytest benchmarks/bench_perf_kernel.py benchmarks/bench_wire.py \
    benchmarks/bench_x4_asyncio_host.py \
    benchmarks/bench_x5_socket_host.py benchmarks/bench_x6_chaos.py \
    benchmarks/bench_shard_scaling.py benchmarks/bench_service.py \
    benchmarks/bench_obs.py \
    --benchmark-only -q

echo
echo "== validating BENCH_perf.json =="
python - <<'EOF'
import json
import sys
from pathlib import Path

path = Path("BENCH_perf.json")
if not path.exists():
    sys.exit("BENCH_perf.json was not produced")
data = json.loads(path.read_text())

for field in ("schema", "generated_at", "machine", "results"):
    if field not in data:
        sys.exit(f"BENCH_perf.json missing field {field!r}")

results = data["results"]
required = (
    "kernel_msglog_window_query",
    "kernel_evaluator_push",
    "kernel_broadcast_dispatch",
    "kernel_events",
    "e1_small_end_to_end",
    "e5_small_end_to_end",
    "e9_small_end_to_end",
    "wire_batch_pipeline",
    "wire_codec_encode",
    "wire_codec_decode",
    "wire_hmac_seal",
    "wire_coalesce",
    "wire_socket_pingpong",
    "x4_asyncio_host",
    "x5_socket_host",
    "x6_chaos",
    "shard_scaling",
    "service_smoke",
    "service_throughput",
    "obs_scrape",
)
missing = [name for name in required if name not in results]
if missing:
    sys.exit(f"BENCH_perf.json missing results: {missing}")

msglog = results["kernel_msglog_window_query"]["speedup_vs_reference"]
if msglog < 3.0:
    sys.exit(f"msglog fast path regressed: {msglog:.2f}x < 3x vs reference")
evaluator = results["kernel_evaluator_push"]["speedup_vs_reference"]
if evaluator < 3.0:
    sys.exit(f"push evaluator regressed: {evaluator:.2f}x < 3x vs reference")
wire = results["wire_batch_pipeline"]["speedup_vs_reference"]
if wire < 3.0:
    sys.exit(f"lean wire path regressed: {wire:.2f}x < 3x vs the tree-building reference")
decode = results["wire_codec_decode"]["speedup_vs_reference"]
if decode < 2.5:
    sys.exit(f"compiled frame decode regressed: {decode:.2f}x < 2.5x vs generic decode")
if not results["shard_scaling"].get("digest_equal"):
    sys.exit("sharded kernel diverged from serial (shard_scaling.digest_equal)")

print(
    f"ok: {len(results)} results; msglog {msglog:.1f}x, "
    f"evaluator {evaluator:.1f}x, wire {wire:.1f}x, decode {decode:.1f}x vs reference"
)
EOF

if [ "$HAVE_BASELINE" = "1" ]; then
    echo
    echo "== kernel regression diff vs committed BENCH_perf.json =="
    BASELINE="$BASELINE" python - <<'EOF'
import json
import os
import sys
from pathlib import Path

ALLOWED_DROP = 0.20  # fail when a kernel throughput falls >20% below baseline
THROUGHPUT_KEYS = (
    "queries_per_s",
    "arrivals_per_s",
    "messages_per_s",
    "events_per_s",
    "frames_per_s",
    "seals_per_s",
    "mb_per_s",
)
# speedup_vs_reference ratios are machine-independent and always compared;
# absolute throughputs are only comparable against a baseline from the same
# kind of machine.  Provenance is judged PER ROW (results merge across
# partial runs, so a file's header machine block can differ from the
# machine a given row was actually recorded on).
RATIO_KEYS = ("speedup_vs_reference",)

old_doc = json.loads(Path(os.environ["BASELINE"]).read_text())
new_doc = json.loads(Path("BENCH_perf.json").read_text())
old, new = old_doc["results"], new_doc["results"]

def row_machine(result, doc):
    return result.get("machine", doc.get("machine"))

failures = []
cross_machine = []
for name, old_result in old.items():
    if old_result.get("kind") != "kernel" or name not in new:
        continue
    same_machine = row_machine(old_result, old_doc) == row_machine(new[name], new_doc)
    if not same_machine:
        cross_machine.append(name)
    keys = THROUGHPUT_KEYS + RATIO_KEYS if same_machine else RATIO_KEYS
    for key in keys:
        if key in old_result and key in new[name]:
            before, after = old_result[key], new[name][key]
            ratio = after / before if before else 1.0
            marker = "  FAIL" if ratio < 1.0 - ALLOWED_DROP else ""
            print(f"  {name}.{key}: {before:,.1f} -> {after:,.1f} ({ratio:.2f}x){marker}")
            if ratio < 1.0 - ALLOWED_DROP:
                failures.append(f"{name}.{key} dropped to {ratio:.2f}x of baseline")
if cross_machine:
    print(
        "  (baseline rows recorded on a different machine, ratio-only "
        "comparison: " + ", ".join(sorted(cross_machine)) + ")"
    )
if failures:
    sys.exit("kernel benchmark regression(s): " + "; ".join(failures))
print("no kernel regression beyond the 20% noise allowance")
EOF
fi

echo
echo "bench smoke passed"
