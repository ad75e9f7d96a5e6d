"""The replicated-log service: one :class:`NodeService` per correct node.

Both wall-clock backends host one per correct node the same way --
:class:`ReplicatedLogService` on an :class:`~repro.runtime.aio.AsyncioCluster`,
each socket child its own (:mod:`repro.service.socket_service`) -- and
:meth:`ServiceReport.from_results` folds the nodes' ``result()`` dicts into
one report.  Beyond the protocol, a service has:

* **A state sampler.**  :func:`sample_forever` reads every node's live
  slot-instance count and live timer count each ``SAMPLE_INTERVAL_S``
  throughout the run.  Retirement is thereby *measured*, not assumed: each
  reading must stay within an O(window) bound (``live_bound``) even as
  thousands of slots stream through -- live protocol state drains back
  toward the in-flight window continuously, not just at teardown.
* **Body dissemination.**  The slot value the protocol agrees on is a
  digest; the batch travels once per replica as a ``body`` payload and is
  fetched from any peer, on hash match, if it went missing (see
  :mod:`repro.service.applier`).  ``body_fetches`` / ``bodies_rejected``
  in the report read 0 on a clean run.
* **Self-healing replicas.**  A replica that missed decisions (crashed
  and restarted mid-run) asks its peers for the slots it lacks and adopts
  the values at least ``f + 1`` of them answer identically -- at most
  ``f`` are faulty, so at least one correct replica finalized each
  adopted value, and adoption preserves the identical-sequence invariant
  without re-running agreement.  The exchange runs node to node inside
  each :class:`~repro.service.applier.ReplicaApplier`, the same on every
  backend; :meth:`ReplicatedLogService.repair` only makes a lagging
  replica ask at once.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Optional

from repro.core.agreement import ProtocolNode
from repro.runtime.aio import AsyncioCluster
from repro.service.applier import ReplicaApplier
from repro.service.coordinator import LogCoordinator, window_bounds
from repro.service.workload import OpenLoopWorkload

#: Seconds between two readings of the state sampler, on every backend.
SAMPLE_INTERVAL_S = 0.05


@dataclass
class ServiceReport:
    """Everything one service run measured, on either wall-clock backend."""

    elapsed_s: float
    #: Commands the workload handed to the primary's coordinator.
    commands_issued: int
    commands_decided: int
    #: Commands applied at every correct replica (the min across them).
    commands_applied: int
    slots_launched: int
    slots_decided: int
    slots_aborted: int
    peak_in_flight: int
    #: Max live slot instances at any sampled node, over the whole run.
    peak_live_instances: int
    peak_live_timers: int
    #: The O(window) drain bound every sampled reading is checked against.
    live_bound: int
    #: Node readings whose live-instance count exceeded the bound, summed
    #: over the nodes (a sample over the bound at two nodes counts twice).
    bound_violations: int = 0
    #: Node readings taken, summed over the nodes.
    samples: int = 0
    #: Per-command decide latency, seconds from stamped arrival.
    latencies: list[float] = field(default_factory=list)
    #: Every expected node reported, all with the same applied-log digest.
    identical_logs: bool = False
    digests: dict[int, str] = field(default_factory=dict)
    applied_per_replica: dict[int, int] = field(default_factory=dict)
    #: Slots replicas adopted on f+1 matching peer answers (summed).
    repaired_entries: int = 0
    #: ``body_req`` rounds replicas sent for a decided slot whose batch body
    #: had not arrived, and bodies refused on a hash mismatch (summed over
    #: replicas).  Both 0 on a clean run: a lost body, not a protocol abort.
    body_fetches: int = 0
    bodies_rejected: int = 0
    #: Fate of each node's process (socket backend; empty in-process).
    exit_reasons: dict[int, str] = field(default_factory=dict)
    #: Protocol-local time of the latest child arming (socket backend).
    armed_at: Optional[float] = None

    @classmethod
    def from_results(
        cls,
        results: dict[int, dict],
        elapsed_s: float,
        issued: int,
        expected_ids: Iterable[int],
        exit_reasons: dict[int, str],
    ) -> "ServiceReport":
        """Fold the nodes' :meth:`NodeService.result` dicts into one report.

        ``results`` maps node ids to those dicts (a node that reported
        nothing is absent); the primary's carries the coordinator's counts.
        """
        nodes = list(results.values())
        primary = next((r for r in nodes if "latencies" in r), {})
        digests = {node_id: r["digest"] for node_id, r in results.items()}
        applied = {i: r["commands_applied"] for i, r in results.items()}

        def peak(key: str) -> int:
            return max((r[key] for r in nodes), default=0)

        def total(key: str) -> int:
            return sum(r[key] for r in nodes)

        return cls(
            elapsed_s=elapsed_s,
            commands_issued=issued,
            commands_decided=primary.get("commands_decided", 0),
            commands_applied=min(applied.values(), default=0),
            slots_launched=primary.get("slots_launched", 0),
            slots_decided=primary.get("slots_decided", 0),
            slots_aborted=primary.get("slots_aborted", 0),
            peak_in_flight=primary.get("peak_in_flight", 0),
            peak_live_instances=peak("peak_live_instances"),
            peak_live_timers=peak("peak_live_timers"),
            live_bound=peak("live_bound"),
            bound_violations=total("bound_violations"),
            samples=total("samples"),
            latencies=primary.get("latencies", []),
            identical_logs=set(digests) >= set(expected_ids)
            and len(set(digests.values())) == 1,
            digests=digests,
            applied_per_replica=applied,
            repaired_entries=total("repaired_entries"),
            body_fetches=total("body_fetches"),
            bodies_rejected=total("bodies_rejected"),
            exit_reasons=dict(exit_reasons),
        )

    @property
    def commands_per_s(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.commands_decided / self.elapsed_s

    @property
    def instances_per_s(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return (self.slots_decided + self.slots_aborted) / self.elapsed_s


class NodeService:
    """One correct node's share of the log: an applier, the coordinator on
    the primary, and the node's bounded-state sampler.

    ``clock`` stamps command arrivals and latencies in the coordinator: a
    socket child passes ``time.time`` so stamps from the parent's workload
    compare across processes.
    """

    def __init__(
        self,
        node: ProtocolNode,
        primary: int,
        window: int = 8,
        max_batch: int = 64,
        retire_after_d: float = 6.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.node = node
        bounds = window_bounds(window)
        self.applier = ReplicaApplier(node, primary, retire_after_d)
        self.applier.body_span = bounds.body_span
        self.coordinator: Optional[LogCoordinator] = None
        if node.node_id == primary:
            self.coordinator = LogCoordinator(
                node,
                window=window,
                max_batch=max_batch,
                clock=clock,
                applier=self.applier,
            )
        #: Enforced, not emergent: before any slot retires the coordinator
        #: launches at most ``unretired_cap`` (3 windows) slots, and its
        #: retirement gate holds live slot instances under ~4 windows
        #: however many slots the run streams through.
        self.live_bound = bounds.live_bound
        self.samples = 0
        self.peak_live_instances = 0
        self.peak_live_timers = 0
        self.bound_violations = 0

    def sample(self) -> None:
        """Take one (live slot instances, live timers) reading."""
        live = self.applier.live_slot_instances
        timers = self.node.live_timer_count()
        self.samples += 1
        if live > self.peak_live_instances:
            self.peak_live_instances = live
        if timers > self.peak_live_timers:
            self.peak_live_timers = timers
        if live > self.live_bound:
            self.bound_violations += 1

    def stop(self) -> None:
        """Take a final reading and detach the decision taps."""
        self.sample()
        if self.coordinator is not None:
            self.coordinator.detach()
        self.applier.detach()

    def result(self) -> dict:
        """This node's counters, as plain values (they cross a pipe)."""
        applier = self.applier
        out = {
            "digest": applier.digest(),
            "commands_applied": applier.commands_applied,
            "live_bound": self.live_bound,
            "samples": self.samples,
            "peak_live_instances": self.peak_live_instances,
            "peak_live_timers": self.peak_live_timers,
            "bound_violations": self.bound_violations,
            "body_fetches": applier.body_fetches,
            "bodies_rejected": applier.bodies_rejected,
            "repaired_entries": applier.slots_adopted,
        }
        coordinator = self.coordinator
        if coordinator is not None:
            out.update(
                commands_decided=coordinator.commands_decided,
                slots_launched=coordinator.slots_launched,
                slots_decided=coordinator.slots_decided,
                slots_aborted=coordinator.slots_aborted,
                peak_in_flight=coordinator.peak_in_flight,
                latencies=list(coordinator.latencies),
            )
        return out


async def sample_forever(services: Collection[NodeService]) -> None:
    """Sample each service every ``SAMPLE_INTERVAL_S`` until cancelled."""
    while True:
        for service in services:
            service.sample()
        await asyncio.sleep(SAMPLE_INTERVAL_S)


class ReplicatedLogService:
    """A long-lived replicated command log on an asyncio cluster."""

    def __init__(
        self,
        cluster: AsyncioCluster,
        primary: int = 0,
        window: int = 8,
        max_batch: int = 64,
        retire_after_d: float = 6.0,
    ) -> None:
        if primary not in cluster.correct_ids:
            raise ValueError(f"primary {primary} must be a correct node")
        self.cluster = cluster
        self.primary = primary
        self.retire_after_d = retire_after_d
        self.services: dict[int, NodeService] = {
            node_id: NodeService(
                cluster.protocol_node(node_id),
                primary,
                window=window,
                max_batch=max_batch,
                retire_after_d=retire_after_d,
            )
            for node_id in cluster.correct_ids
        }
        self._sampler: Optional[asyncio.Task] = None
        self._started_at: Optional[float] = None

    @property
    def appliers(self) -> dict[int, ReplicaApplier]:
        return {node_id: s.applier for node_id, s in self.services.items()}

    @property
    def coordinator(self) -> LogCoordinator:
        return self.services[self.primary].coordinator

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin background state sampling."""
        if self._sampler is None:
            self._started_at = time.monotonic()
            self._sampler = asyncio.get_running_loop().create_task(
                sample_forever(self.services.values())
            )

    async def stop(self) -> None:
        """Stop sampling and detach the decision taps."""
        if self._sampler is not None:
            self._sampler.cancel()
            await asyncio.gather(self._sampler, return_exceptions=True)
            self._sampler = None
        for service in self.services.values():
            service.stop()

    # ------------------------------------------------------------------
    # Completion and catch-up
    # ------------------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for the pipeline to empty and every replica to catch up.

        Returns True when every correct replica has finalized every slot
        the coordinator launched, False once ``timeout_s`` has passed.
        ``None`` waits without a deadline; 0 polls once (a drained service
        never suspends, so the deadline cannot cut it short).
        """
        coordinator = self.coordinator
        appliers = list(self.appliers.values())
        try:
            async with asyncio.timeout(timeout_s):
                await coordinator.drain()
                target = coordinator.general.next_index
                while any(applier.next_index < target for applier in appliers):
                    await asyncio.sleep(0.01)
        except TimeoutError:
            return False
        return True

    def repair(self) -> None:
        """Make every replica behind the furthest one ask its peers now."""
        appliers = self.appliers.values()
        target = max(applier.next_index for applier in appliers)
        for applier in appliers:
            if applier.next_index < target:
                applier.request_outcomes()

    # ------------------------------------------------------------------
    # Control-plane surface: the cluster's, plus the log's progress
    # ------------------------------------------------------------------
    def status_snapshot(self) -> dict:
        return self.cluster.on_loop(self._status)

    def _status(self) -> dict:
        coord = self.coordinator
        progress = {
            str(node_id): {
                "next_slot": applier.next_index,
                "applied": applier.commands_applied,
            }
            for node_id, applier in self.appliers.items()
        }
        return {**self.cluster.status_snapshot(), "service": {
            "primary": self.primary,
            "commands_issued": coord.commands_submitted,
            "commands_decided": coord.commands_decided,
            "slots_decided": coord.slots_decided,
            "progress": progress,
        }}

    def render_metrics(self) -> str:
        return self.cluster.render_metrics(self.services)

    def inject_fault_script(self, spec: object) -> dict:
        return self.cluster.inject_fault_script(spec)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, elapsed_s: Optional[float] = None) -> ServiceReport:
        if elapsed_s is None:
            started = self._started_at
            elapsed_s = (
                time.monotonic() - started if started is not None else 0.0
            )
        return ServiceReport.from_results(
            {node_id: s.result() for node_id, s in self.services.items()},
            elapsed_s,
            self.coordinator.commands_submitted,
            self.services,
            {},
        )

    # ------------------------------------------------------------------
    # Convenience driver
    # ------------------------------------------------------------------
    async def run_workload(
        self,
        rate: float,
        total: int,
        seed: int = 0,
        poisson: bool = True,
        drain_timeout_s: Optional[float] = None,
    ) -> ServiceReport:
        """Sustain an open-loop workload to completion; returns the report."""
        self.start()
        workload = OpenLoopWorkload(
            self.coordinator.submit, rate=rate, total=total, seed=seed,
            poisson=poisson,
        )
        started = time.monotonic()
        await workload.run()
        await self.drain(drain_timeout_s)
        elapsed = time.monotonic() - started
        await self.stop()
        return self.report(elapsed_s=elapsed)


__all__ = [
    "NodeService",
    "ReplicatedLogService",
    "SAMPLE_INTERVAL_S",
    "ServiceReport",
    "sample_forever",
]
