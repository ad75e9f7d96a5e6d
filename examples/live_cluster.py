#!/usr/bin/env python
"""Operating a live cluster through its control plane, over HTTP only.

``replicated_log.py`` runs the service and reads the final report object;
this demo runs the same open-loop workload on the asyncio backend but
*observes and perturbs it from outside*, the way an operator (or a
Prometheus scraper) would:

1. attach a :class:`~repro.obs.ControlPlane` to the service, which serves
   every node's metrics (``GET /metrics``, Prometheus text format, series
   labelled ``node="i"``), a cluster ``GET /status`` JSON snapshot, and
   ``POST /faults``;
2. mid-workload, scrape ``/metrics`` and print live per-node state --
   arrivals, live timers, live slot instances, decide-latency quantiles
   straight from the histogram series;
3. ``POST /faults`` a ``FaultScript`` action that crashes a replica with
   full state loss, then restarts it a few protocol delays later;
4. let the run drain -- the revenant asks its peers for the slots it
   missed and adopts each value ``f + 1`` of them vouch for -- and assert
   it converged to the identical applied sequence.

The same plane serves the socket backend (one process per node):
``python -m repro.cli serve --backend socket --metrics --supervise``
prints a ``control: http://...`` URL serving cluster-wide ``/status`` +
``/faults`` while each child serves its own ``/metrics``.

Run:  python examples/live_cluster.py
"""

import asyncio
import json
import urllib.request

from repro.core.params import ProtocolParams
from repro.obs import ControlPlane, parse_prometheus_text
from repro.runtime.aio import AsyncioCluster
from repro.service import ReplicatedLogService
from repro.service.workload import OpenLoopWorkload

RATE = 400.0
TOTAL = 800
WINDOW = 4
TIME_SCALE = 0.05  # d = 50 ms of wall clock
VICTIM = 2


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.read().decode()


def _post_json(url: str, payload) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=5.0) as resp:
        return json.loads(resp.read())


async def main() -> None:
    params = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)
    cluster = AsyncioCluster(params, seed=0, time_scale=TIME_SCALE)
    service = ReplicatedLogService(cluster, primary=0, window=WINDOW)
    plane = ControlPlane(service).start()
    url = plane.url
    print(f"control plane: {url}  (GET /metrics, GET /status, POST /faults)")
    try:
        service.start()
        workload = OpenLoopWorkload(
            service.coordinator.submit, rate=RATE, total=TOTAL, seed=0
        )
        task = asyncio.create_task(workload.run())

        # --- scrape mid-run, like Prometheus would --------------------
        await asyncio.sleep(0.5)
        series = parse_prometheus_text(
            await asyncio.to_thread(_get, f"{url}/metrics")
        )
        print("\nmid-run scrape:")
        for node_id in cluster.correct_ids:
            label = f'{{node="{node_id}"}}'
            print(
                f"  node {node_id}: "
                f"arrivals={series['repro_arrivals_total'][label]:.0f} "
                f"live_timers={series['repro_live_timers'][label]:.0f} "
                f"live_slots={series['repro_live_slot_instances'][label]:.0f} "
                f"decisions={series['repro_decisions_total'][label]:.0f}"
            )

        # --- crash a replica through the fault endpoint ---------------
        reply = await asyncio.to_thread(
            _post_json,
            f"{url}/faults",
            [
                {"at_d": 0.0, "do": "crash", "nodes": [VICTIM],
                 "state_loss": True},
                {"at_d": 8.0, "do": "restart", "nodes": [VICTIM]},
            ],
        )
        print(f"\ninjected over HTTP: {reply} "
              f"(crash node {VICTIM} now, restart after 8d)")

        await task
        await service.drain(timeout_s=30.0)
        await service.stop()
        report = service.report()

        status = json.loads(await asyncio.to_thread(_get, f"{url}/status"))
        applied = {node: held["applied"]
                   for node, held in status["service"]["progress"].items()}
        print(f"\nfinal /status: faults_injected="
              f"{status['faults_injected']} "
              f"restarts={status['nodes'][str(VICTIM)]['restarts']} "
              f"applied={applied}")
    finally:
        plane.close()
        cluster.close()

    print(f"\n  {report.commands_per_s:7.0f} commands/s decided, "
          f"{report.slots_decided} slots, {report.slots_aborted} aborts")
    print(f"  revenant node {VICTIM} adopted {report.repaired_entries} slots "
          f"on f+1 matching peer answers after its state-loss crash")
    assert report.identical_logs, "replica sequences diverged"
    assert report.commands_applied == TOTAL
    print(f"\nAll {len(report.digests)} replicas -- the crashed-and-"
          f"restarted one included -- applied the identical {TOTAL}-command "
          f"sequence (digest {next(iter(report.digests.values()))}). ✓")


if __name__ == "__main__":
    asyncio.run(main())
