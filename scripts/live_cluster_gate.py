#!/usr/bin/env python
"""CI gate: the live cluster control plane, end to end, on either backend.

Drives ``repro.cli serve --backend {asyncio,socket} --metrics`` the way an
operator would, over HTTP only:

1.  start the cluster and read the ``control: http://...`` line;
2.  poll ``/status`` until every node is alive;
3.  scrape every node's series and assert each required Prometheus series
    is present and parseable (socket: each child's own ``metrics_url``;
    asyncio: the control plane's ``/metrics``, which labels every node);
4.  ``POST /faults`` a crash of one replica with full state loss
    mid-workload.  Socket: a SIGKILL, and ``--supervise`` respawns it.
    Asyncio: the same crash plus a scripted ``restart`` at ``at_d: 6``;
5.  poll ``/status`` until the victim is alive again with
    ``restarts >= 1``, and read its incarnation from its series; on
    socket, also scrape the supervisor's own ``/metrics`` on the control
    plane and require ``repro_cluster_nodes_alive`` = n and
    ``repro_cluster_restarts_total`` >= 1;
6.  wait for the serve process itself: it must exit 0, which requires
    every replica -- the revenant included, healed from f+1 peer
    answers -- to have applied the identical full command sequence.

Run:  python scripts/live_cluster_gate.py --backend socket

Stdlib only; exits non-zero with a diagnostic on the first failed step.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.obs.metrics import REQUIRED_SERIES, parse_prometheus_text  # noqa: E402

#: Hard wall for one backend's run.
GATE_TIMEOUT_S = 85.0
COMMANDS = 1500
RATE = 300.0
PRIMARY = 0
VICTIM = 2  # a replica: killing the primary is documented as unhealable

#: What each backend is sent: the socket supervisor respawns a SIGKILLed
#: child by itself; in-process, the script restarts the node.
FAULTS = {
    "socket": [{"at_d": 0.0, "do": "crash", "nodes": [VICTIM],
                "state_loss": True}],
    "asyncio": [{"at_d": 0.0, "do": "crash", "nodes": [VICTIM],
                 "state_loss": True},
                {"at_d": 6.0, "do": "restart", "nodes": [VICTIM]}],
}


def fail(step: str, detail: str, proc: subprocess.Popen) -> int:
    print(f"GATE FAIL [{step}]: {detail}", file=sys.stderr)
    proc.kill()
    tail = proc.stdout.read() if proc.stdout else ""
    if tail:
        print(f"--- serve output tail ---\n{tail[-2000:]}", file=sys.stderr)
    return 1


def http_json(url: str, payload=None, timeout: float = 5.0):
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def http_text(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--backend", choices=sorted(FAULTS), required=True)
    backend = parser.parse_args().backend
    deadline = time.monotonic() + GATE_TIMEOUT_S
    env = dict(os.environ)
    # Prepend, not replace: an inherited entry (such as the call-surface
    # collector's ``sitecustomize``) must still reach the child.
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(REPO, "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--backend", backend, "--metrics", "--supervise",
            "--commands", str(COMMANDS), "--rate", str(RATE),
            "--primary", str(PRIMARY), "--time-scale", "0.05",
            "--seed", "7",
        ],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # Step 1: the control endpoint announces itself on stdout.
        control = None
        assert proc.stdout is not None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                return fail("announce", "serve exited before announcing", proc)
            if line.startswith("control: "):
                control = line.split(" ", 1)[1].strip()
                break
        if control is None:
            return fail("announce", "no 'control:' line before timeout", proc)
        print(f"[{backend}] control endpoint: {control}")

        def metrics_url(node: dict) -> str:
            return node["metrics_url"] or f"{control}/metrics"

        # Step 2: every node alive (socket: with its own metrics endpoint).
        status = None
        while time.monotonic() < deadline:
            try:
                status = http_json(f"{control}/status")
            except (urllib.error.URLError, OSError, ValueError):
                time.sleep(0.2)
                continue
            nodes = status.get("nodes", {})
            if status.get("started") and nodes and all(
                node["alive"] and (node["metrics_url"] or backend == "asyncio")
                for node in nodes.values()
            ):
                break
            time.sleep(0.2)
        else:
            return fail("status", f"cluster never ready: {status}", proc)
        print(f"all {len(status['nodes'])} nodes alive")

        # Step 3: scrape every node, assert the required series.
        for node_id, node in sorted(status["nodes"].items()):
            series = parse_prometheus_text(http_text(metrics_url(node)))
            label = f'{{node="{node_id}"}}'
            missing = [
                name for name in REQUIRED_SERIES
                if label not in series.get(name, {})
                and label not in series.get(f"{name}_count", {})  # histograms
            ]
            if missing:
                return fail(
                    "scrape", f"node {node_id} missing series {missing}", proc
                )
        print(f"scraped {len(status['nodes'])} nodes: "
              f"all {len(REQUIRED_SERIES)} required series present")

        # Step 4: crash one replica through the fault endpoint.
        faults = FAULTS[backend]
        reply = http_json(f"{control}/faults", payload=faults)
        if reply != {"accepted": len(faults), "backend": backend}:
            return fail("inject", f"fault not accepted: {reply}", proc)
        print(f"injected crash(state_loss) for node {VICTIM}: {reply}")

        # Step 5: the victim is revived; its series report the bumped
        # incarnation.
        recovered = None
        while time.monotonic() < deadline:
            try:
                status = http_json(f"{control}/status")
            except (urllib.error.URLError, OSError, ValueError):
                time.sleep(0.2)
                continue
            node = status["nodes"].get(str(VICTIM), {})
            if node.get("alive") and node.get("restarts", 0) >= 1:
                recovered = node
                break
            time.sleep(0.2)
        if recovered is None:
            return fail("respawn", f"victim never respawned: {status}", proc)
        try:
            series = parse_prometheus_text(http_text(metrics_url(recovered)))
            incarnation = series.get("repro_incarnation", {}).get(
                f'{{node="{VICTIM}"}}', 0.0
            )
        except (urllib.error.URLError, OSError, ValueError):
            incarnation = None  # respawn race; /status already proved it
        print(f"victim respawned: restarts={recovered['restarts']} "
              f"incarnation={incarnation}")
        if backend == "socket":
            # The supervisor's own series, on the control plane's /metrics.
            series = parse_prometheus_text(http_text(f"{control}/metrics"))
            alive = series.get("repro_cluster_nodes_alive", {}).get("")
            restarts = series.get("repro_cluster_restarts_total", {}).get("")
            n = len(status["nodes"])
            if alive != n or restarts is None or restarts < 1:
                return fail(
                    "supervisor",
                    f"nodes_alive={alive} (want {n}), "
                    f"restarts_total={restarts} (want >= 1)",
                    proc,
                )
            print(f"supervisor metrics: nodes_alive={alive:g}, "
                  f"restarts_total={restarts:g}")

        # Step 6: the run itself must converge -- identical logs at every
        # replica, revenant included (exit 0 requires full repair).
        remaining = max(5.0, deadline - time.monotonic())
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            return fail("converge", "serve did not finish in time", proc)
        sys.stdout.write(out)
        if proc.returncode != 0:
            print(f"GATE FAIL [converge]: serve exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print(f"GATE OK [{backend}]: scrape + injected kill + recovery + "
              "identical logs")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
