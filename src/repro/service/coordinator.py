"""Primary-side log coordinator: a bounded pipeline of slot agreements.

Turns a stream of client commands into slot-indexed
:class:`~repro.extensions.concurrent.ConcurrentGeneral` invocations:

* **Batching.**  Up to ``max_batch`` queued commands become one slot, so a
  single protocol execution carries many commands -- the ratio is the
  service's main throughput lever, bounded above by the wire layer's
  frame-size limit on the one frame that carries the batch.
* **Digest value, body shipped once.**  The paper's primitives only ever
  compare an agreement value for equality, so the slot's value is
  ``batch_digest(batch)`` and the batch itself travels exactly once per
  replica, as a ``("body", slot, batch)`` service payload broadcast just
  *before* the digest is proposed.  None of the O(n^2) support / approve /
  ready / echo envelopes carries a command.  If either send raises, the
  batch goes back to the queue head and no slot index is spent.
* **Windowing.**  At most ``window`` slots are in flight (launched but not
  yet returned at the primary).  The window bounds message pressure; new
  slots may launch the moment an in-flight slot returns.
* **Retirement gate.**  Live protocol state is decided-but-not-yet-retired
  slots as much as in-flight ones, and the retirement delay (``6d``) can
  dwarf a fast-path decide -- so a window on undecided slots alone does
  *not* bound live state.  When wired to the primary's own
  :class:`~repro.service.applier.ReplicaApplier` (``applier``), the
  coordinator additionally refuses to launch while more than
  ``unretired_cap`` (default ``3 * window``) slots are launched but
  unretired at that applier's ``retire_watermark``, turning the service's
  O(window) live-state bound into an enforced invariant instead of an
  emergent one.  The coordinator sets the applier's ``on_retire`` to
  :meth:`notify_retired`, so a gated pipeline resumes as the watermark
  advances, without waiting for a decision.
* **Paced launches.**  A gated coordinator that launched greedily would
  spend all ``unretired_cap`` slots in one burst and then stall for the
  whole retirement tail, which replays the burst ``retire_after_d * d``
  later, for the life of the run.  So a gated coordinator launches at most
  one slot per token, with tokens ``launch_interval = (retire_after_d * d
  + decide_ewma) / unretired_cap`` apart in local time: by Little's law
  the slot rate the cap sustains anyway, spread evenly.  ``decide_ewma`` is
  a launch-to-decision EWMA in local time, starting at ``d``.  Commands
  queued between tokens wait for the next one (a single ``after_local``
  timer) and leave together as one batch.  An ungated coordinator
  (``applier`` is None) launches greedily.
* **Back-pressure.**  The submit queue is bounded; :meth:`submit` awaits
  until space frees.  An open-loop client that stamps arrivals at their
  theoretical instants therefore *measures* the queueing this causes
  instead of silently throttling the offered load.
* **Abort recovery.**  A slot that returns BOTTOM aborted identically at
  every correct replica (Agreement covers BOTTOM), and the applier records
  it as a skip -- so the coordinator re-enqueues the batch at the *front*
  of the queue for a fresh slot.  Commands are never lost and never
  applied twice.

Latency stamps use a wall-clock ``clock`` (monotonic seconds), decoupled
from protocol time: command latency is client-visible time from (stamped)
arrival to the slot's decision at the primary.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from functools import partial
from typing import Callable, Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.params import BOTTOM
from repro.extensions.concurrent import ConcurrentGeneral
from repro.extensions.state_machine import DecisionTap
from repro.runtime.api import INERT_TIMER, TimerHandle
from repro.service.applier import ReplicaApplier, batch_digest

#: Weight of the newest sample in the launch-to-decision EWMA.
_EWMA_GAIN = 0.125


class LogCoordinator(DecisionTap):
    """Pipelines batched client commands through slot-indexed agreement."""

    def __init__(
        self,
        node: ProtocolNode,
        window: int = 8,
        max_batch: int = 64,
        max_queue: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        applier: Optional[ReplicaApplier] = None,
        unretired_cap: Optional[int] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.max_batch = max_batch
        #: The primary's own applier: its ``retire_watermark`` (first slot
        #: not yet retired) and ``retire_after_d`` gate and pace launches as
        #: documented above.  None launches greedily, window-bound only.
        self.applier = applier
        self.unretired_cap = (
            unretired_cap if unretired_cap is not None else 3 * window
        )
        #: Launch-to-decision time of this primary's slots, local units.
        self.decide_ewma = node.params.d
        self._launched_at: dict[int, float] = {}
        self._last_launch = float("-inf")
        self._token: TimerHandle = INERT_TIMER
        #: The instant the last token to fire was armed for.
        self._token_at = float("-inf")
        #: Submit-queue bound: two full windows' worth of batched commands.
        self.max_queue = (
            max_queue if max_queue is not None else 2 * window * max_batch
        )
        self.clock = clock
        self._queue: deque[tuple[object, float]] = deque()
        self._in_flight: dict[int, list[tuple[object, float]]] = {}
        #: Decide-latency per command, seconds from stamped arrival.
        self.latencies: list[float] = []
        self.commands_submitted = 0
        self.commands_decided = 0
        self.slots_launched = 0
        self.slots_decided = 0
        self.slots_aborted = 0
        self.peak_in_flight = 0
        #: Why the last launch attempt failed (cleared by the next one that
        #: succeeds).  While set, ``submit`` stops waiting for queue space,
        #: so the client's next call re-attempts the launch and sees it.
        self.launch_error: Optional[Exception] = None
        self._space = asyncio.Event()
        self._space.set()
        self._drained = asyncio.Event()
        self._drained.set()
        self.general = ConcurrentGeneral(node)
        super().__init__(node)
        if applier is not None:
            applier.on_retire = lambda _watermark: self.notify_retired()

    # ------------------------------------------------------------------
    # Client session API
    # ------------------------------------------------------------------
    async def submit(self, command: object, arrival: Optional[float] = None) -> None:
        """Enqueue one command, awaiting queue space (back-pressure).

        ``arrival`` is the command's latency-stamp origin (``clock()``
        units); an open-loop generator passes the theoretical arrival
        instant so queueing delay counts against the latency.
        """
        # A stuck launch frees no space: fall through so the client sees why.
        while len(self._queue) >= self.max_queue and self.launch_error is None:
            self._space.clear()
            await self._space.wait()
        self.submit_nowait(command, arrival)

    def submit_nowait(self, command: object, arrival: Optional[float] = None) -> None:
        """Enqueue one command without waiting (queue bound not enforced).

        Raises whatever the launch it triggers raises (a batch too large
        for one wire frame, say); the command stays queued, nothing is lost.
        """
        stamp = arrival if arrival is not None else self.clock()
        self._queue.append((command, stamp))
        self.commands_submitted += 1
        self._drained.clear()
        self._launch()

    @property
    def backlog(self) -> int:
        """Commands queued but not yet assigned to a slot."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Slots launched but not yet returned at the primary."""
        return len(self._in_flight)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    @property
    def unretired(self) -> int:
        """Slots launched but not yet retired at the local replica."""
        if self.applier is None:
            return len(self._in_flight)
        return self.general.next_index - self.applier.retire_watermark

    @property
    def launch_interval(self) -> float:
        """Least local time between two gated launches (see module doc)."""
        retire_tail = self.applier.retire_after_d * self.node.params.d
        return (retire_tail + self.decide_ewma) / self.unretired_cap

    def notify_retired(self) -> None:
        """Re-open the launch gate after the retirement watermark moved."""
        self._launch_from_callback()

    def _launch(self) -> None:
        queue = self._queue
        general = self.general
        gated = self.applier is not None
        while queue and len(self._in_flight) < self.window:
            if gated:
                if self.unretired >= self.unretired_cap:
                    break
                # A fired token's instant has come even when the clock reads
                # a rounding error short of it; re-arming for that shortfall
                # could land on the same instant for ever.
                now = max(self.node.local_now(), self._token_at)
                due = self._last_launch + self.launch_interval
                if now < due:
                    if not (self._token.alive or self._detached):
                        self._token = self.node.after_local(
                            due - now,
                            partial(self._on_token, due),
                            tag=f"launch_token:{self.node.node_id}",
                        )
                    break
            batch = []
            while queue and len(batch) < self.max_batch:
                batch.append(queue.popleft())
            commands = tuple(cmd for cmd, _stamp in batch)
            slot = general.next_index
            try:
                # Body first: a batch too big for one frame raises here,
                # before the slot index is spent.
                self.node.broadcast(("body", slot, commands))
                general.propose(batch_digest(commands), index=slot)
            except Exception as exc:
                queue.extendleft(reversed(batch))
                general.next_index = slot
                self.launch_error = exc
                self._space.set()  # a blocked submit() must see this too
                raise
            self.launch_error = None
            self._in_flight[slot] = batch
            if gated:
                self._last_launch = self._launched_at[slot] = now
            self.slots_launched += 1
            if len(self._in_flight) > self.peak_in_flight:
                self.peak_in_flight = len(self._in_flight)
        if len(queue) < self.max_queue and not self._space.is_set():
            self._space.set()

    def _on_token(self, due: float) -> None:
        self._token_at = due
        self._launch_from_callback()

    def _launch_from_callback(self) -> None:
        """Launch from a decision, retirement or token callback.

        A failure must not unwind the protocol code that called back: the
        batch is already back at the queue head and the error is kept in
        ``launch_error``; the next :meth:`submit` / :meth:`submit_nowait`
        re-attempts the launch and raises it to the client.
        """
        try:
            self._launch()
        except Exception:
            pass

    def _on_decision(self, decision: Decision) -> None:
        general = decision.general
        if not (
            isinstance(general, tuple) and general[0] == self.node.node_id
        ):
            return
        batch = self._in_flight.pop(general[1], None)
        if batch is None:
            return  # not ours / already settled (re-decision after churn)
        launched_at = self._launched_at.pop(general[1], None)
        if launched_at is not None:
            sample = max(0.0, self.node.local_now() - launched_at)
            self.decide_ewma += _EWMA_GAIN * (sample - self.decide_ewma)
        if decision.value is BOTTOM:
            self.slots_aborted += 1
            # Every correct replica skipped this slot identically; the
            # commands go back to the head of the queue for a fresh slot.
            self._queue.extendleft(reversed(batch))
        else:
            self.slots_decided += 1
            now = self.clock()
            self.commands_decided += len(batch)
            latencies = self.latencies
            for _cmd, stamp in batch:
                latencies.append(now - stamp)
        self._launch_from_callback()
        if not self._queue and not self._in_flight:
            self._drained.set()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Leave the decision chain and cancel a pending launch token."""
        super().detach()
        self._token.cancel()

    @property
    def drained(self) -> bool:
        """True when every submitted command's slot has decided."""
        return self._drained.is_set()

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Wait until every submitted command's slot has decided."""
        await asyncio.wait_for(self._drained.wait(), timeout_s)


__all__ = ["LogCoordinator"]
