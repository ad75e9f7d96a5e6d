"""The replicated-log service across OS processes (UDP socket backend).

Each correct child hosts one :class:`~repro.service.service.NodeService`,
the same object the asyncio service holds per node, and samples it on the
same interval.  The parent never runs protocol code: it feeds the primary
child client commands over the control pipe, on the schedule
:func:`~repro.service.workload.arrival_offsets` gives, and watches
per-child apply progress come back.

Wire-level protocol over the existing control/results pipes:

* parent -> child: ``("cmds", [(command, arrival_wall), ...])`` -- a batch
  of client commands for the primary (ignored by replicas): each arrival
  due before ``now + LEAD``, in stamp order, for the primary's
  :class:`~repro.service.workload.StampRelease` to submit at its stamp.
* child -> parent: ``("applied", node_id, next_slot, commands_applied)`` --
  rate-limited apply progress, so the parent knows when every replica has
  caught up without streaming per-slot decisions.
* the final ``("result", ...)`` payload gains a ``"service"`` dict: the
  child's :meth:`~repro.service.service.NodeService.result`, which
  :meth:`~repro.service.service.ServiceReport.from_results` folds into
  the run's report.

Log contents never use the pipes: like every agreement message, batch
bodies and catch-up travel node to node over UDP (``body`` pushed once by
the primary, ``body_req`` / ``body`` and ``outcome_req`` / ``outcomes``
between any two replicas -- see :mod:`repro.service.applier`), so the
parent is never trusted with what a replica applies.  Latency stamps are
``time.time()`` readings, comparable across the process tree.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from repro.core.params import ProtocolParams
from repro.runtime.socket_host import SocketCluster
from repro.service.service import ServiceReport
from repro.service.workload import arrival_offsets

#: The parent's wake period (its pipe wait, seconds), and how far ahead of
#: its instant an arrival ships: the next wake comes before it is due.
LEAD = 0.02


class SocketLogService(SocketCluster):
    """Parent-side driver for the replicated-log service over UDP children.

    Construction spawns the children with service mode enabled (a
    :class:`~repro.service.service.NodeService` in each correct child);
    :meth:`run_workload` then plays the open-loop generator from the
    parent, shipping arrivals down the primary's control pipe in batches,
    ``LEAD`` ahead of their instants, and waiting for every correct
    child's ``applied`` progress to reach the offered total.
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
        self.primary = primary
        #: node_id -> (next_slot, commands_applied) progress reports.
        self.progress: dict[int, tuple[int, int]] = {}
        #: Workload progress for /status (set by run_workload).
        self.workload_issued = 0
        self.workload_total = 0
        super().__init__(
            params,
            general=primary,
            _service_cfg=dict(
                primary=primary, window=window, max_batch=max_batch,
                retire_after_d=retire_after_d,
            ),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Pipe intake
    # ------------------------------------------------------------------
    def _dispatch(self, msg: tuple) -> None:
        if msg[0] == "applied":
            _tag, sender_id, next_slot, applied = msg
            self.progress[sender_id] = (next_slot, applied)
            return
        super()._dispatch(msg)

    def _caught_up(self, total: int) -> bool:
        return all(
            self.progress.get(node_id, (0, -1))[1] >= total
            for node_id in self.correct_ids
            if node_id not in self._retired
        )

    def _handle_death(self, node_id, proc) -> None:
        if proc.exitcode != 0 and not self._stop_sent and not self._closed:
            # The incarnation's applied log died with it; stale progress
            # must not satisfy _caught_up while the revenant re-applies.
            self.progress.pop(node_id, None)
        super()._handle_death(node_id, proc)

    # ------------------------------------------------------------------
    # Control-plane surface
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """The supervisor's series, plus the log's slowest replica."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        # One C-level copy: the run loop adds and drops progress entries.
        progress = list(self.progress.values())
        reg.gauge(
            "repro_cluster_commands_applied_min",
            "Min commands applied across correct replicas",
        ).set(min((held[1] for held in progress), default=0))
        return super().render_metrics() + reg.render()

    def status_snapshot(self) -> dict:
        out = super().status_snapshot()
        out["service"] = {
            "primary": self.primary,
            "commands_issued": self.workload_issued,
            "commands_total": self.workload_total,
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
        offsets = arrival_offsets(rate, total, seed, poisson)
        due = next(offsets, None)
        # Begin the arrival schedule at the shared epoch, when every child
        # is armed -- stamps stay comparable across the process tree.
        start = max(time.time(), self._epoch_wall or 0.0)
        issued = 0  # arrivals whose instant has passed
        ahead: deque[float] = deque()  # stamps pulled and yet to come
        settle_deadline: Optional[float] = None
        outbox: list[tuple[str, float]] = []
        self.workload_total = total
        while True:
            self.faults.pump()
            self._pump_supervisor()
            now_wall = time.time()
            while due is not None and start + due < now_wall + LEAD:
                outbox.append((f"cmd{issued + len(ahead)}", start + due))
                ahead.append(start + due)
                due = next(offsets, None)
            while ahead and ahead[0] <= now_wall:
                ahead.popleft()
                issued += 1
            self.workload_issued = issued
            if outbox and self.primary not in self.conns and (
                not self._supervise or self.primary in self._retired
            ):
                break  # primary gone for good: no progress possible
            # Ship while the primary's pipe is clear; down, respawning or
            # stunned, it leaves the outbox here until it takes it again.
            while outbox and self._ship(self.primary):
                self._ship(self.primary, ("cmds", outbox[: self.PIPE_BATCH]))
                del outbox[: self.PIPE_BATCH]
            if issued >= total:
                if settle_deadline is None:
                    settle_deadline = time.monotonic() + settle_timeout_s
                if self._caught_up(total) or time.monotonic() > settle_deadline:
                    break
            if not self._receive(dict(self.conns), timeout=LEAD):
                break
        elapsed = time.time() - start
        self._await_results(timeout_s=10.0)
        report = ServiceReport.from_results(
            {
                node_id: payload["service"]
                for node_id, payload in self._results.items()
                if payload.get("service")
            },
            elapsed,
            issued,
            [i for i in self.correct_ids if i not in self._retired],
            self._exit_reason,
        )
        report.armed_at = self._armed_at()
        self.close()
        return report


__all__ = ["SocketLogService"]
