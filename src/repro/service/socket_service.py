"""The replicated-log service across OS processes (UDP socket backend).

The same coordinator/applier stack as the asyncio service, but each node
lives in its own process: the parent never runs protocol code, it only
feeds the primary child client commands over the control pipe and watches
per-child apply progress come back.

Wire-level protocol over the existing control/results pipes:

* parent -> child: ``("cmds", [(command, arrival_wall), ...])`` -- a batch
  of client commands for the primary's coordinator (ignored by replicas).
* child -> parent: ``("applied", node_id, next_slot, commands_applied)`` --
  rate-limited apply progress, so the parent knows when every replica has
  caught up without streaming per-slot decisions.
* the final ``("result", ...)`` payload gains a ``"service"`` dict with the
  child's applied-log digest, counters (``body_fetches`` and
  ``bodies_rejected`` among them), peak live-instance/timer readings, and
  (on the primary) the per-command latency list.

Batch bodies do not use the pipes: like every agreement message they
travel node to node over UDP (``body`` pushed once by the primary,
``body_req`` / ``body`` between any two replicas -- see
:mod:`repro.service.applier`).

Latency stamps use ``time.time()`` wall clock: parent and children share
the machine, so cross-process stamps are directly comparable.
"""

from __future__ import annotations

import multiprocessing.connection
import random
import time
from typing import Optional

from repro.core.agreement import ProtocolNode
from repro.core.params import ProtocolParams
from repro.runtime.socket_host import SocketCluster
from repro.service.applier import ReplicaApplier
from repro.service.coordinator import LogCoordinator
from repro.service.service import ServiceReport


class ChildLogService:
    """Per-child service state: an applier everywhere, a coordinator on the
    primary.  Driven from the socket child's poll loop."""

    PROGRESS_INTERVAL_S = 0.1

    def __init__(self, node: ProtocolNode, service_cfg: dict, conn) -> None:
        self.node = node
        self.conn = conn
        self.primary = service_cfg["primary"]
        self.applier = ReplicaApplier(
            node,
            self.primary,
            retire_after_d=service_cfg.get("retire_after_d", 6.0),
        )
        window = service_cfg.get("window", 8)
        # unretired_cap + window at the coordinator's default cap of 3 * window.
        self.applier.body_span = 4 * window
        self.coordinator: Optional[LogCoordinator] = None
        if node.node_id == self.primary:
            self.coordinator = LogCoordinator(
                node,
                window=window,
                max_batch=service_cfg.get("max_batch", 64),
                clock=time.time,
                applier=self.applier,
            )
        self.peak_live_instances = 0
        self.peak_live_timers = 0
        self._last_progress = 0.0
        self._last_reported = (-1, -1)

    # ------------------------------------------------------------------
    # Pipe intake (called from the child poll loop)
    # ------------------------------------------------------------------
    #: Max slots answered per ("repair_req", ...) message.
    REPAIR_SPAN = 512

    def handle(self, msg: tuple) -> bool:
        """Consume one control message; True iff it was service traffic."""
        tag = msg[0]
        if tag == "cmds":
            if self.coordinator is not None:
                for command, arrival in msg[1]:
                    self.coordinator.submit_nowait(command, arrival)
            return True
        if tag == "repair_req":
            # The parent is healing a laggard: answer with this replica's
            # finalized outcomes for the requested slot range.  Outcomes
            # survive retirement (the applier keeps them), so even slots
            # whose protocol state is long gone can be served.
            _tag, lo, hi = msg
            hi = min(hi, lo + self.REPAIR_SPAN, self.applier.next_index)
            entries = []
            for index in range(lo, hi):
                outcome = self.applier.outcome(index)
                if outcome is not None:
                    entries.append((index, outcome))
            if entries:
                try:
                    self.conn.send(
                        ("outcomes", self.node.node_id, entries)
                    )
                except (BrokenPipeError, OSError):
                    pass
            return True
        if tag == "adopt":
            # f+1-vouched outcomes from the parent: adopt and report fresh
            # progress immediately so the catch-up is visible at once.
            self.applier.adopt_entries(msg[1])
            self._last_progress = 0.0
            self.tick_progress()
            return True
        return False

    def tick_progress(self) -> None:
        """Send an (applied, ...) progress report if it changed."""
        progress = (self.applier.next_index, self.applier.commands_applied)
        if progress == self._last_reported:
            return
        self._last_reported = progress
        try:
            self.conn.send(
                ("applied", self.node.node_id, progress[0], progress[1])
            )
        except (BrokenPipeError, OSError):
            pass

    def tick(self, host) -> None:
        """Sample state and report progress (rate-limited); poll-loop hook."""
        live = self.applier.live_slot_instances
        if live > self.peak_live_instances:
            self.peak_live_instances = live
        timers = host.live_timer_count()
        if timers > self.peak_live_timers:
            self.peak_live_timers = timers
        now = time.monotonic()
        if now - self._last_progress < self.PROGRESS_INTERVAL_S:
            return
        self._last_progress = now
        self.tick_progress()

    # ------------------------------------------------------------------
    # Final result
    # ------------------------------------------------------------------
    def result(self) -> dict:
        applier = self.applier
        out = {
            "digest": applier.digest(),
            "next_slot": applier.next_index,
            "commands_applied": applier.commands_applied,
            "skipped_slots": len(applier.skipped),
            "retired": applier.retired_count,
            "live_slot_instances": applier.live_slot_instances,
            "peak_live_instances": self.peak_live_instances,
            "peak_live_timers": self.peak_live_timers,
            "body_fetches": applier.body_fetches,
            "bodies_rejected": applier.bodies_rejected,
        }
        coordinator = self.coordinator
        if coordinator is not None:
            out.update(
                commands_submitted=coordinator.commands_submitted,
                commands_decided=coordinator.commands_decided,
                slots_launched=coordinator.slots_launched,
                slots_decided=coordinator.slots_decided,
                slots_aborted=coordinator.slots_aborted,
                peak_in_flight=coordinator.peak_in_flight,
                latencies=list(coordinator.latencies),
            )
        return out


class SocketLogService(SocketCluster):
    """Parent-side driver for the replicated-log service over UDP children.

    Construction spawns the children with service mode enabled (an applier
    per correct node, the coordinator in the primary's process);
    :meth:`run_workload` then plays the open-loop generator from the
    parent, shipping due arrivals down the primary's control pipe in
    batches and waiting for every correct child's ``applied`` progress to
    reach the offered total.
    """

    #: Max commands per ("cmds", ...) pipe message.
    PIPE_BATCH = 512

    def __init__(
        self,
        params: ProtocolParams,
        primary: int = 0,
        window: int = 8,
        max_batch: int = 64,
        retire_after_d: float = 6.0,
        **kwargs,
    ) -> None:
        kwargs.setdefault("value", None)
        self._service_cfg = {
            "primary": primary,
            "window": window,
            "max_batch": max_batch,
            "retire_after_d": retire_after_d,
        }
        self.primary = primary
        #: node_id -> (next_slot, commands_applied) progress reports.
        self.progress: dict[int, tuple[int, int]] = {}
        #: slot -> {peer_id: outcome} votes collected for laggard repair.
        self._repair_votes: dict[int, dict[int, object]] = {}
        self._last_repair = 0.0
        #: Slot outcomes shipped to laggards after f+1 agreement.
        self.repaired_entries = 0
        #: Workload progress for /status (set by run_workload).
        self.workload_issued = 0
        self.workload_total = 0
        super().__init__(params, general=primary, **kwargs)

    # ------------------------------------------------------------------
    # Pipe intake
    # ------------------------------------------------------------------
    def _dispatch(self, report, results, node_id, conn, msg) -> None:
        if msg[0] == "applied":
            _tag, sender_id, next_slot, applied = msg
            self.progress[sender_id] = (next_slot, applied)
            return
        if msg[0] == "outcomes":
            _tag, sender_id, entries = msg
            for index, outcome in entries:
                self._repair_votes.setdefault(index, {})[sender_id] = outcome
            return
        super()._dispatch(report, results, node_id, conn, msg)

    def _caught_up(self, total: int) -> bool:
        for node_id in self.correct_ids:
            if node_id in self._retired:
                continue
            held = self.progress.get(node_id)
            if held is None or held[1] < total:
                return False
        return True

    def _handle_death(self, node_id, proc) -> None:
        if proc.exitcode != 0 and not self._stop_sent and not self._closed:
            # The incarnation's applied log died with it; stale progress
            # must not satisfy _caught_up while the revenant re-applies.
            self.progress.pop(node_id, None)
        super()._handle_death(node_id, proc)

    # ------------------------------------------------------------------
    # Laggard repair (parent-brokered f+1 catch-up)
    # ------------------------------------------------------------------
    #: Minimum seconds between repair rounds.
    REPAIR_INTERVAL_S = 0.5
    #: Max slots requested/shipped per round.
    REPAIR_SPAN = 512

    def _pump_repair(self, settling: bool) -> None:
        """Heal laggards: broker f+1-vouched slot outcomes over the pipes.

        A replica respawned after a SIGKILL restarts with an empty applied
        log, and slots the cluster already retired will never re-decide for
        it -- without repair it stays behind forever.  The parent asks the
        peers that are ahead for their finalized outcomes, tallies them per
        slot, and ships every slot on which at least f+1 peers agree (so at
        least one *correct* replica vouches for it) to the laggard, which
        adopts contiguously and reports fresh progress.  Mid-run, only a
        gap beyond two pipeline windows triggers repair (ordinary skew
        heals by itself); once the workload is settling, any gap does.
        """
        now = time.monotonic()
        if now - self._last_repair < self.REPAIR_INTERVAL_S:
            return
        self._last_repair = now
        active = [
            node_id
            for node_id in self.correct_ids
            if node_id not in self._retired and node_id in self.conns
        ]
        fronts = {
            node_id: self.progress[node_id][0]
            for node_id in active
            if node_id in self.progress
        }
        if len(fronts) < 2:
            return
        lead = max(fronts.values())
        threshold = 0 if settling else 2 * self._service_cfg.get("window", 8)
        laggards = [
            node_id for node_id, front in fronts.items()
            if lead - front > threshold
        ]
        if not laggards:
            if self._repair_votes:
                self._repair_votes.clear()
            return
        f = self.params.f
        for lag_id in laggards:
            lo = fronts[lag_id]
            hi = min(lead, lo + self.REPAIR_SPAN)
            # Ship whatever contiguous f+1-agreed prefix the collected
            # votes support, then (re)request the range for the rest.
            entries: list[tuple[int, object]] = []
            for index in range(lo, hi):
                votes = self._repair_votes.get(index)
                if not votes:
                    break
                tally: dict = {}
                for outcome in votes.values():
                    tally[outcome] = tally.get(outcome, 0) + 1
                settled = [v for v, count in tally.items() if count >= f + 1]
                if len(settled) != 1:
                    break
                entries.append((index, settled[0]))
            if entries:
                conn = self.conns.get(lag_id)
                if conn is not None:
                    try:
                        conn.send(("adopt", entries))
                        self.repaired_entries += len(entries)
                    except (BrokenPipeError, OSError):
                        pass
            for peer_id in active:
                if peer_id == lag_id or fronts.get(peer_id, 0) <= lo:
                    continue
                conn = self.conns.get(peer_id)
                if conn is not None:
                    try:
                        conn.send(("repair_req", lo, hi))
                    except (BrokenPipeError, OSError):
                        pass

    # ------------------------------------------------------------------
    # Control-plane status
    # ------------------------------------------------------------------
    def status_snapshot(self) -> dict:
        out = super().status_snapshot()
        out["service"] = {
            "primary": self.primary,
            "commands_issued": self.workload_issued,
            "commands_total": self.workload_total,
            "repaired_entries": self.repaired_entries,
            "progress": {
                str(node_id): {"next_slot": held[0], "applied": held[1]}
                for node_id, held in sorted(self.progress.items())
            },
        }
        return out

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_workload(
        self,
        rate: float,
        total: int,
        seed: int = 0,
        poisson: bool = True,
        settle_timeout_s: float = 30.0,
    ) -> ServiceReport:
        """Sustain the open-loop workload to completion; returns the report.

        ``settle_timeout_s`` bounds how long the parent waits for every
        replica to catch up after the last arrival was issued.
        """
        if not self._started:
            self._start_children()
        rng = random.Random(seed)
        # Begin the arrival schedule at the shared epoch, when every child
        # is armed -- stamps stay comparable across the process tree.
        start = max(time.time(), self._epoch_wall or 0.0)
        offset = 0.0
        issued = 0
        settle_deadline: Optional[float] = None
        results = self._results
        outbox: list[tuple[str, float]] = []
        self.workload_total = total
        while True:
            self._pump_faults()
            self._pump_supervisor()
            self._pump_repair(settling=issued >= total)
            now_wall = time.time()
            while issued < total and start + offset <= now_wall:
                outbox.append((f"cmd{issued}", start + offset))
                issued += 1
                offset += rng.expovariate(rate) if poisson else 1.0 / rate
                if len(outbox) >= self.PIPE_BATCH:
                    break
            self.workload_issued = issued
            if outbox:
                conn = self.conns.get(self.primary)
                if conn is None:
                    if not self._supervise or self.primary in self._retired:
                        break  # primary gone for good: no progress possible
                    # Primary down but respawning: hold the outbox and keep
                    # supervising; commands ship once it rejoins.
                else:
                    try:
                        conn.send(("cmds", outbox))
                        outbox = []
                    except (BrokenPipeError, OSError):
                        # Death is classified by the supervisor pump; the
                        # outbox is retried against the next incarnation.
                        pass
            if issued >= total:
                if settle_deadline is None:
                    settle_deadline = time.monotonic() + settle_timeout_s
                if self._caught_up(total):
                    break
                if time.monotonic() > settle_deadline:
                    break
            waitable = list(self.conns.values())
            if not waitable:
                if self._supervise and (self._down or self._awaiting_port):
                    time.sleep(0.02)
                    continue
                break
            ready = multiprocessing.connection.wait(waitable, timeout=0.02)
            for conn in ready:
                node_id = next(
                    (i for i, c in self.conns.items() if c is conn), None
                )
                if node_id is None:
                    continue
                msg = self._safe_recv(node_id, conn)
                if msg is None:
                    continue
                self._dispatch(None, results, node_id, conn, msg)
        elapsed = time.time() - start
        self._send_stop()
        self._stop_sent = True
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            waitable = {
                node_id: conn
                for node_id, conn in self.conns.items()
                if node_id not in results
            }
            if not waitable:
                break
            ready = multiprocessing.connection.wait(
                list(waitable.values()), timeout=0.1
            )
            for conn in ready:
                node_id = next(i for i, c in waitable.items() if c is conn)
                msg = self._safe_recv(node_id, conn)
                if msg is None:
                    continue
                self._dispatch(None, results, node_id, conn, msg)
        report = self._service_report(elapsed, issued, results)
        self.close()
        return report

    def _service_report(
        self, elapsed_s: float, issued: int, results: dict[int, dict]
    ) -> ServiceReport:
        service_by_node = {
            node_id: payload.get("service")
            for node_id, payload in results.items()
            if node_id in self.correct_ids and payload.get("service")
        }
        digests = {
            node_id: svc["digest"] for node_id, svc in service_by_node.items()
        }
        applied = {
            node_id: svc["commands_applied"]
            for node_id, svc in service_by_node.items()
        }
        primary_svc = service_by_node.get(self.primary, {})
        identical = (
            len(digests) == len(
                [i for i in self.correct_ids if i not in self._retired]
            )
            and len(set(digests.values())) == 1
        )
        return ServiceReport(
            elapsed_s=elapsed_s,
            commands_issued=issued,
            commands_decided=primary_svc.get("commands_decided", 0),
            commands_applied=min(applied.values()) if applied else 0,
            slots_launched=primary_svc.get("slots_launched", 0),
            slots_decided=primary_svc.get("slots_decided", 0),
            slots_aborted=primary_svc.get("slots_aborted", 0),
            peak_in_flight=primary_svc.get("peak_in_flight", 0),
            peak_live_instances=max(
                (svc["peak_live_instances"] for svc in service_by_node.values()),
                default=0,
            ),
            peak_live_timers=max(
                (svc["peak_live_timers"] for svc in service_by_node.values()),
                default=0,
            ),
            latencies=list(primary_svc.get("latencies", ())),
            identical_logs=identical,
            digests=digests,
            applied_per_replica=applied,
            exit_reasons=dict(self._exit_reason),
            repaired_entries=self.repaired_entries,
            body_fetches=sum(
                svc["body_fetches"] for svc in service_by_node.values()
            ),
            bodies_rejected=sum(
                svc["bodies_rejected"] for svc in service_by_node.values()
            ),
        )


__all__ = ["ChildLogService", "SocketLogService"]
