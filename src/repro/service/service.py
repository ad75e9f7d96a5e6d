"""The replicated-log service on the asyncio backend.

Wires the coordinator and appliers onto an
:class:`~repro.runtime.aio.AsyncioCluster`, plus the two things a *service*
needs beyond the protocol:

* **A state sampler.**  A background task samples every correct node's live
  slot-instance count and live timer count throughout the run.  Retirement
  is thereby *measured*, not assumed: the per-sample maximum must stay
  within an O(window) bound (``live_bound``) even as thousands of slots
  stream through -- live protocol state drains back toward the in-flight
  window continuously, not just at teardown.
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
import types
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.aio import AsyncioCluster
from repro.service.applier import ReplicaApplier
from repro.service.coordinator import LogCoordinator, window_bounds
from repro.service.workload import OpenLoopWorkload


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
    #: The O(window) drain bound the in-process sampler checks against
    #: (None where nothing samples: socket children report peaks only).
    live_bound: Optional[int] = None
    #: Samples (after warmup) whose live-instance count exceeded the bound.
    bound_violations: int = 0
    samples: int = 0
    #: Per-command decide latency, seconds from stamped arrival.
    latencies: list[float] = field(default_factory=list)
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


class ReplicatedLogService:
    """A long-lived replicated command log on an asyncio cluster."""

    def __init__(
        self,
        cluster: AsyncioCluster,
        primary: int = 0,
        window: int = 8,
        max_batch: int = 64,
        retire_after_d: float = 6.0,
        sample_interval_s: float = 0.05,
    ) -> None:
        if primary not in cluster.correct_ids:
            raise ValueError(f"primary {primary} must be a correct node")
        self.cluster = cluster
        self.primary = primary
        self.window = window
        self.max_batch = max_batch
        self.retire_after_d = retire_after_d
        self.sample_interval_s = sample_interval_s
        self.appliers: dict[int, ReplicaApplier] = {
            node_id: ReplicaApplier(
                cluster.protocol_node(node_id), primary, retire_after_d
            )
            for node_id in cluster.correct_ids
        }
        primary_applier = self.appliers[primary]
        self.coordinator = LogCoordinator(
            cluster.protocol_node(primary),
            window=window,
            max_batch=max_batch,
            applier=primary_applier,
        )
        bounds = window_bounds(window)
        for applier in self.appliers.values():
            applier.body_span = bounds.body_span
        #: Enforced, not emergent: the coordinator's retirement gate holds
        #: every correct node's live slot instances under ~4 windows
        #: regardless of how many slots the run streams through.
        self.live_bound = bounds.live_bound
        #: Per-sample (elapsed_s, max live slot instances, max live timers).
        self.state_samples: list[tuple[float, int, int]] = []
        self.peak_live_instances = 0
        self.peak_live_timers = 0
        self.bound_violations = 0
        #: Bound checks only apply once the pipeline has filled.
        self._warmed_up = False
        self._sampler: Optional[asyncio.Task] = None
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin background state sampling."""
        if self._sampler is None:
            self._started_at = time.monotonic()
            self._sampler = asyncio.get_running_loop().create_task(
                self._sample_loop()
            )

    async def stop(self) -> None:
        """Stop sampling and detach the decision taps."""
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._sampler = None
        self.sample_state()  # one final reading
        self.coordinator.detach()
        for applier in self.appliers.values():
            applier.detach()

    async def _sample_loop(self) -> None:
        while True:
            self.sample_state()
            await asyncio.sleep(self.sample_interval_s)

    def sample_state(self) -> tuple[int, int]:
        """Record one (live instances, live timers) reading; returns it."""
        live = max(
            applier.live_slot_instances for applier in self.appliers.values()
        )
        timers = max(
            self.cluster.hosts[node_id].live_timer_count()
            for node_id in self.appliers
        )
        started = self._started_at if self._started_at is not None else 0.0
        self.state_samples.append((time.monotonic() - started, live, timers))
        if live > self.peak_live_instances:
            self.peak_live_instances = live
        if timers > self.peak_live_timers:
            self.peak_live_timers = timers
        if not self._warmed_up:
            # Warmed up once the pipeline has been filled at least once.
            self._warmed_up = self.coordinator.slots_launched >= self.window
        # The transition sample is itself subject to the bound: a pipeline
        # that overshoots in the very sample that completes warmup must
        # count as a violation, not slip through the warmup gate.
        if self._warmed_up and live > self.live_bound:
            self.bound_violations += 1
        return live, timers

    # ------------------------------------------------------------------
    # Completion and catch-up
    # ------------------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for the pipeline to empty and every replica to catch up.

        Returns True when every correct replica has finalized every slot
        the coordinator launched.
        """
        # ``is not None``: a zero timeout means "poll once and report",
        # not "wait forever" (0 is falsy, so a truthiness check would
        # silently turn poll-once into an unbounded wait).
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        wait = remaining()
        if wait == 0.0:
            # Poll-once: a zero deadline must not enter wait_for, whose
            # zero-timeout path cancels before a set event's waiter can
            # even report success.
            if not self.coordinator.drained:
                return False
        else:
            try:
                await self.coordinator.drain(wait)
            except asyncio.TimeoutError:
                return False
        target = self.coordinator.general.next_index
        while any(
            applier.next_index < target for applier in self.appliers.values()
        ):
            wait = remaining()
            if wait == 0.0:
                return False
            await asyncio.sleep(0.01)
        return True

    def repair(self) -> None:
        """Make every replica behind the furthest one ask its peers now."""
        target = max(applier.next_index for applier in self.appliers.values())
        for applier in self.appliers.values():
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
        return self.cluster.render_metrics({
            node_id: types.SimpleNamespace(
                applier=applier,
                coordinator=self.coordinator if node_id == self.primary else None,
            )
            for node_id, applier in self.appliers.items()
        })

    def inject_fault_script(self, spec: object) -> dict:
        return self.cluster.inject_fault_script(spec)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, elapsed_s: Optional[float] = None) -> ServiceReport:
        coord = self.coordinator
        appliers = self.appliers
        if elapsed_s is None:
            started = self._started_at
            elapsed_s = (
                time.monotonic() - started if started is not None else 0.0
            )
        logs = [applier.applied for applier in appliers.values()]
        identical = all(log == logs[0] for log in logs[1:])
        return ServiceReport(
            elapsed_s=elapsed_s,
            commands_issued=coord.commands_submitted,
            commands_decided=coord.commands_decided,
            commands_applied=min(
                applier.commands_applied for applier in appliers.values()
            ),
            slots_launched=coord.slots_launched,
            slots_decided=coord.slots_decided,
            slots_aborted=coord.slots_aborted,
            peak_in_flight=coord.peak_in_flight,
            peak_live_instances=self.peak_live_instances,
            peak_live_timers=self.peak_live_timers,
            live_bound=self.live_bound,
            bound_violations=self.bound_violations,
            samples=len(self.state_samples),
            latencies=list(coord.latencies),
            identical_logs=identical,
            digests={
                node_id: applier.digest()
                for node_id, applier in appliers.items()
            },
            applied_per_replica={
                node_id: applier.commands_applied
                for node_id, applier in appliers.items()
            },
            repaired_entries=sum(a.slots_adopted for a in appliers.values()),
            body_fetches=sum(a.body_fetches for a in appliers.values()),
            bodies_rejected=sum(a.bodies_rejected for a in appliers.values()),
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


__all__ = ["ReplicatedLogService", "ServiceReport"]
