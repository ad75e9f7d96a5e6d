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
* **An f+1 repair path.**  A replica that missed decisions (crashed and
  restarted mid-run) adopts slot outcomes that at least ``f + 1`` peers
  report identically -- since at most ``f`` are faulty, at least one
  correct replica applied each adopted outcome, so adoption preserves the
  identical-sequence invariant without re-running agreement.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.aio import AsyncioCluster
from repro.service.applier import ReplicaApplier
from repro.service.coordinator import LogCoordinator
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
    #: Slot outcomes laggards adopted after f+1 vouching.
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
        for applier in self.appliers.values():
            applier.body_span = self.coordinator.unretired_cap + window
        #: Enforced, not emergent: the coordinator refuses to launch past
        #: 3 * window launched-but-unretired slots at the primary, and the
        #: other replicas' watermarks trail the primary's by at most the
        #: retirement progress of one message delay -- so every correct
        #: node's live slot instances stay under ~4 windows regardless of
        #: how many slots the run streams through.
        self.live_bound = 4 * window + 2
        #: Per-sample (elapsed_s, max live slot instances, max live timers).
        self.state_samples: list[tuple[float, int, int]] = []
        self.peak_live_instances = 0
        self.peak_live_timers = 0
        self.bound_violations = 0
        #: Bound checks only apply once the pipeline has filled.
        self._warmed_up = False
        self._sampler: Optional[asyncio.Task] = None
        self._started_at: Optional[float] = None
        self.repaired_entries = 0

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
    # Completion and repair
    # ------------------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for the pipeline to empty and every replica to catch up.

        Returns True when every correct replica has finalized every slot
        the coordinator launched (repair may still be warranted for
        replicas that missed decisions permanently -- see :meth:`repair`).
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

    def repair(self) -> int:
        """Adopt f+1-matching slot outcomes into lagging replicas.

        Returns the number of entries adopted across all replicas.
        """
        f = self.cluster.params.f
        appliers = list(self.appliers.values())
        target = max(applier.next_index for applier in appliers)
        adopted = 0
        for applier in appliers:
            if applier.next_index >= target:
                continue
            entries = []
            for index in range(applier.next_index, target):
                votes: dict[object, int] = {}
                for peer in appliers:
                    if peer is applier:
                        continue
                    outcome = peer.outcome(index)
                    if outcome is not None:
                        votes[outcome] = votes.get(outcome, 0) + 1
                settled = [v for v, count in votes.items() if count >= f + 1]
                if len(settled) != 1:
                    break  # cannot vouch past this slot; stop contiguously
                entries.append((index, settled[0]))
            adopted += applier.adopt_entries(entries)
        self.repaired_entries += adopted
        return adopted

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
            repaired_entries=self.repaired_entries,
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
        self.repair()
        await self.stop()
        return self.report(elapsed_s=elapsed)


__all__ = ["ReplicatedLogService", "ServiceReport"]
