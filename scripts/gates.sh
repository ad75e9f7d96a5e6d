#!/usr/bin/env bash
# Every CI gate, defined once.  CI runs one step per gate; with no argument
# every gate runs in order, each exactly once, as a local pre-push check.
#
#   ./scripts/gates.sh                  # all gates
#   ./scripts/gates.sh tier1 ratios     # the named gates only
#
# Gates: tier1 hygiene asyncio_smoke socket_smoke chaos_smoke service_smoke
#        live_cluster bench_seam ratios surface surface_product
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

ALL=(tier1 hygiene asyncio_smoke socket_smoke chaos_smoke service_smoke
     live_cluster bench_seam ratios surface surface_product)

# The test files the hygiene gate runs under dev mode; tier1 skips them so
# no test runs twice.
HYGIENE_TESTS=(tests/test_obs.py tests/test_service.py tests/test_runtime.py
               tests/test_wire_batch.py tests/test_live_faults.py)

# bounded SECONDS WHAT CMD...: run a wall-clock command under a hard timeout,
# so a hung backend fails fast instead of wedging CI.  Node children
# self-reap when the parent dies (pipe EOF -> clean stop); the sleep gives
# them that window.  The pkill sweep matches *every* spawn-based
# multiprocessing child, so it only runs on dedicated CI runners ($CI set),
# never on a developer machine, where it could kill unrelated work.
bounded() {
    local limit=$1 what=$2
    shift 2
    if ! timeout -k 10 "$limit" "$@"; then
        echo "$what FAILED (timed out or exited non-zero)" >&2
        sleep 3
        if [ -n "${CI:-}" ]; then
            pkill -f "from multiprocessing.spawn import spawn_main" 2>/dev/null || true
        fi
        exit 1
    fi
}

# The test suite, minus the hygiene files.
gate_tier1() {
    python -m pytest -x -q "${HYGIENE_TESTS[@]/#/--ignore=}"
}

# Resource hygiene: under -X dev (asyncio debug mode, ResourceWarning on)
# anything the GC has to close for us -- a leaked socket, a never-awaited
# coroutine -- becomes an unraisable-exception warning, which the second -W
# turns into a failure of the test that leaked it.  Covers the control
# plane, the service's fetch timers and body store, both carriers and their
# release heap, the live fault drivers, and the runtime host conformance
# contract (Sim + Asyncio + Socket).
gate_hygiene() {
    python -X dev -W error::ResourceWarning -m pytest \
        -W error::pytest.PytestUnraisableExceptionWarning -q "${HYGIENE_TESTS[@]}"
}

# One real-coroutine agreement (n=4, f=1, byzantine mirror sender) through
# the asyncio backend; d = 50 ms keeps scheduling stalls inside the windows.
gate_asyncio_smoke() {
    bounded 120 "asyncio runtime smoke" \
        python -m repro.cli run-async --n 4 --f 1 --time-scale 0.05
}

# The same agreement over real UDP datagrams, one OS process per node.
gate_socket_smoke() {
    bounded 120 "socket runtime smoke" \
        python -m repro.cli run-socket --n 4 --f 1 --time-scale 0.05
}

# The self-stabilization claim live: SIGKILL one node mid-agreement (full
# state loss); the supervisor respawns it scrambled, and the command exits
# non-zero unless every node, the revenant included, converges on the
# agreed value within the recovery bound with a clean teardown.
gate_chaos_smoke() {
    bounded 120 "chaos smoke" \
        python -m repro.cli chaos --n 4 --f 1 --time-scale 0.02
}

# The replicated command log end to end: ~2k commands of open-loop load on
# each wall-clock backend (socket: the parent ships arrivals down the
# primary's control pipe); exits non-zero unless every correct replica
# applied the identical sequence with nothing lost.  Each leg takes a few
# seconds, so the one bound covers both.
gate_service_smoke() {
    bounded 120 "service smoke" sh -c \
        'python -m repro.cli serve --backend asyncio \
             --n 4 --f 1 --commands 2000 --rate 1000 --time-scale 0.1 &&
         python -m repro.cli serve --backend socket \
             --n 4 --f 1 --commands 2000 --rate 1000 --time-scale 0.1'
}

# The control plane end to end, over HTTP only, on both backends: scrape
# every node's /metrics, POST a FaultScript that crashes a replica with
# full state loss mid-workload (socket: a SIGKILL the supervisor heals;
# asyncio: plus a scripted restart), then require /status to report the
# victim alive with restarts >= 1 and the run to converge to identical
# logs (which needs the revenant to heal its log from f+1 matching peer
# answers).
gate_live_cluster() {
    bounded 180 "live cluster gate" sh -c \
        'python scripts/live_cluster_gate.py --backend socket &&
         python scripts/live_cluster_gate.py --backend asyncio'
}

# The repo benchmark (BENCHMARK.json, bench/) patches kernel, network, core,
# transport and service methods *by name*.  A renamed or vanished target
# does not fail the run by itself -- it is one stderr line ("trace: ... not
# found; ... skipped") -- so fail on that line as well as on a non-zero
# exit (span coverage not green, output check failed).  One traced run per
# family: svc_asyncio_fastnet for the in-process wall-clock seams, a short
# svc_socket_kill for the socket carrier's (scraped datagram counters, the
# respawn and the catch-up), a short sim_adversary for the simulator's
# cleanup, prune and abort paths, and a short sim_agree, the one workload
# whose output check demands that the watch_fire spans count exactly the
# watch callbacks that fired (a MessageLog.watch that bypasses the seam
# fails there).
gate_bench_seam() {
    python -m pytest bench/ -q
    traced_run --workload svc_asyncio_fastnet
    traced_run --workload svc_socket_kill --seconds 6
    traced_run --workload sim_adversary --seconds 3
    traced_run --workload sim_agree --seconds 3
}

# traced_run ARGS...: one traced bench/run.py run; fail on a non-zero exit
# or a "not found;" line.
traced_run() {
    local trace_err
    trace_err="$(mktemp)"
    if ! python3 bench/run.py "$@" --trace 1 2>"$trace_err" \
            || grep -q "not found;" "$trace_err"; then
        cat "$trace_err" >&2
        rm -f "$trace_err"
        echo "traced benchmark run $* FAILED (non-zero exit, or a patch target was 'not found;')" >&2
        exit 1
    fi
    rm -f "$trace_err"
}

# Each fast path against the reference it replaced: msglog, evaluator and
# lean wire pipeline >= 3x, compiled decode >= 2.5x, and none more than 20%
# under the ratio last recorded for it.
gate_ratios() {
    python scripts/ratio_gates.py
}

# The call surface: all of tier-1 once more under a sys.setprofile collector
# that every spawned or forked child loads too; fails on any src/ function
# never called that scripts/surface_allow.txt does not list with a reason,
# and on any allowlist entry naming a function that is gone.
gate_surface() {
    python scripts/surface.py
}

# The product's call surface: every product entry point once, small
# (scripts/product_roots.py holds the list: the experiments, every CLI
# command, both live-cluster legs, each bench workload traced for 3 s)
# under the same collector; fails on any src/ function none of them calls
# that neither surface_allow.txt nor surface_tests_only.txt lists, and on
# an entry listed in both.  The benchmark runs write bench/out/.
gate_surface_product() {
    python scripts/surface.py --allow scripts/surface_allow.txt \
        --allow scripts/surface_tests_only.txt -- python scripts/product_roots.py
}

if [ "$#" -eq 0 ]; then
    set -- "${ALL[@]}"
fi
for gate in "$@"; do
    if ! declare -F "gate_$gate" >/dev/null; then
        echo "unknown gate: $gate (gates: ${ALL[*]})" >&2
        exit 2
    fi
done
for gate in "$@"; do
    echo
    echo "== $gate =="
    "gate_$gate"
done
echo
echo "gates passed: $*"
