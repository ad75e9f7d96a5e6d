"""Primary-side log coordinator: a bounded pipeline of slot agreements.

Turns a stream of client commands into slot-indexed
:class:`ConcurrentGeneral` invocations (the paper's footnote 9: concurrent
agreements of one General, told apart by an index):

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
  ``unretired_cap`` (``3 * window``; :func:`window_bounds` states it with
  the two bounds derived from it) slots are launched but
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
  of the queue for a fresh slot.  While timing holds, commands are never
  lost and never applied twice (a violation can break that; see below).
* **Stall retry.**  The paper bounds a correct General's agreement only
  while every node keeps its timing bounds.  Through a violation -- a host
  stalled for several ``d``, say -- a slot can return nowhere: no node
  I-accepts, so none aborts either, and the decay erases its state in
  silence.  Left alone, that slot would hold the window and the
  retirement watermark for good.  So a slot still in flight
  ``retry_after = Delta_v + d`` after its last proposal (``Delta_v`` is the
  least gap at which a correct General may initiate the same instance
  again) is proposed again: same index, same digest, body sent again.
  Replicas that already finalized the slot ignore the re-decision.  One
  timer covers every in-flight slot.  A retry only reaches replicas that
  have not finalized the slot (the others build no instance for it), so
  where ``n - f`` replicas finalized it and the primary did not, no retry
  can decide it.  The primary's own applier adopts such a slot from f+1
  peer answers: it asks ``retire_after_d * d`` after it stalled there and
  then at most that far apart, far inside ``retry_after``, and the stall
  check settles a slot that applier is already past instead of retrying
  it.  The guarantees above assume the
  violation has ended: a retry that aborts at the primary while some
  replica applied the first attempt re-enqueues commands that replica
  already applied.

Latency stamps use a wall-clock ``clock`` (monotonic seconds), decoupled
from protocol time: command latency is client-visible time from (stamped)
arrival to the slot's decision at the primary.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.messages import InitiatorMsg, Value
from repro.core.params import BOTTOM
from repro.runtime.api import INERT_TIMER, TimerHandle
from repro.service.applier import DecisionTap, ReplicaApplier, batch_digest

#: Weight of the newest sample in the launch-to-decision EWMA.
_EWMA_GAIN = 0.125

IndexedKey = tuple[int, int]  # (general node id, index)


class IndexReuseError(ValueError):
    """An index was reused within ``Delta_v`` of its previous initiation.

    Footnote 9 removes the *cross*-index pacing, but the per-instance
    Sending Validity Criteria still apply: a correct General must not
    reinitiate the same ``(G, index)`` instance within ``Delta_v``, or
    receivers can confuse the two executions' messages.
    """


def indexed_general(general: int, index: int) -> IndexedKey:
    """The instance key for invocation ``index`` of ``general``."""
    return (general, index)


class ConcurrentGeneral:
    """Drives concurrent indexed agreements from one (correct) General.

    The paper notes that ``Delta_0`` / ``Delta_v`` pacing "can be
    circumvented by adding counters to concurrent agreement initiations":
    every piece of per-instance state is keyed by ``(G, index)`` instead of
    ``G``.  Instance keys are already opaque in
    :class:`~repro.core.agreement.AgreementInstance` (the
    authenticated-sender checks use ``general_node_id``), so an indexed
    instance is simply keyed by that tuple.  The per-*instance* pacing
    still applies (an index is not reused within ``Delta_v``); *across*
    indexes there is none.
    """

    def __init__(self, node: ProtocolNode) -> None:
        self.node = node
        self.next_index = 0
        self._index_last_used: dict[int, float] = {}

    def propose(self, value: Value, index: Optional[int] = None) -> int:
        """Initiate an indexed agreement; returns the index used.

        A fresh index is allocated by default, which trivially satisfies the
        per-instance pacing rules (an index is never reused).
        """
        if index is None:
            index = self.next_index
            self.next_index += 1
        else:
            # Keep the allocator ahead of explicit indexes so a later
            # default-allocated propose cannot collide with this one.
            self.next_index = max(self.next_index, index + 1)
        now = self.node.local_now()
        delta_v = self.node.params.delta_v
        last = self._index_last_used.get(index)
        if last is not None and now - last < delta_v:
            raise IndexReuseError(
                f"index {index} reused within Delta_v ({now - last:.3f} time "
                f"units after its previous initiation, Delta_v = "
                f"{delta_v:.3f}); a correct General must allocate a fresh "
                f"index"
            )
        # Amortized pruning keeps the pacing map bounded in a long-lived
        # process: stamps are inserted in monotone time order, so expired
        # entries cluster at the front.
        while self._index_last_used:
            stale = next(iter(self._index_last_used))
            if now - self._index_last_used[stale] <= delta_v:
                break
            del self._index_last_used[stale]
        self._index_last_used.pop(index, None)
        self._index_last_used[index] = now
        key = indexed_general(self.node.node_id, index)
        # The General clears its own prior messages for this instance.
        self.node.instance(key).ia.log.clear()
        self.node.trace("propose_indexed", value=value, index=index)
        self.node.broadcast(InitiatorMsg(key, value))
        return index


class WindowBounds(NamedTuple):
    """The bounds a pipeline ``window`` sets, stated once."""

    #: Launched-but-unretired slots the primary's gate admits (``3w``).
    unretired_cap: int
    #: Slots ahead of ``next_index`` a replica keeps bodies and tallies
    #: outcome answers for: the gate's slots plus a window (``4w``).
    body_span: int
    #: Live slot instances a correct node may hold (``4w + 2``).
    live_bound: int


def window_bounds(window: int) -> WindowBounds:
    return WindowBounds(3 * window, 4 * window, 4 * window + 2)


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
        self.unretired_cap = window_bounds(window).unretired_cap
        #: Launch-to-decision time of this primary's slots, local units.
        self.decide_ewma = node.params.d
        #: In-flight slot -> local time of its latest proposal.
        self._launched_at: dict[int, float] = {}
        #: A slot in flight this long after its latest proposal is proposed
        #: again (see module doc).
        self.retry_after = node.params.delta_v + node.params.d
        self._stall_check: TimerHandle = INERT_TIMER
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
        #: Proposals repeated for a stalled slot (0 while timing holds).
        self.slots_retried = 0
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
                self._last_launch = now
            else:
                now = self.node.local_now()
            self._launched_at[slot] = now
            if not (self._stall_check.alive or self._detached):
                self._arm_stall_check()
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
        if isinstance(general, tuple) and general[0] == self.node.node_id:
            self._settle(general[1], decision.value is BOTTOM, decided=True)

    def _settle(self, slot: int, aborted: bool, decided: bool) -> None:
        """Close an in-flight slot: ``decided`` here, or adopted by the
        primary's applier (which says nothing about decide latency)."""
        batch = self._in_flight.pop(slot, None)
        if batch is None:
            return  # not ours / already settled (re-decision after churn)
        launched_at = self._launched_at.pop(slot, None)
        if decided and launched_at is not None:
            sample = max(0.0, self.node.local_now() - launched_at)
            self.decide_ewma += _EWMA_GAIN * (sample - self.decide_ewma)
        if aborted:
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
        if not self._in_flight:
            self._stall_check.cancel()
            if not self._queue:
                self._drained.set()

    def _arm_stall_check(self) -> None:
        due = min(self._launched_at.values()) + self.retry_after
        self._stall_check = self.node.after_local(
            max(0.0, due - self.node.local_now()),
            self._check_stalls,
            tag=f"stall_check:{self.node.node_id}",
        )

    def _check_stalls(self) -> None:
        now = self.node.local_now()
        # A fired timer's instant has come even when the clock reads a
        # rounding error short of it.
        cutoff = now - self.retry_after + 1e-9 * self.node.params.d
        stalled = [
            slot for slot, proposed in self._launched_at.items()
            if proposed <= cutoff
        ]
        applier = self.applier
        for slot in stalled:
            if applier is not None and slot < applier.next_index:
                self._settle(
                    slot, applier.outcome(slot) is BOTTOM, decided=False
                )
                continue
            # Like a launch from a callback, a failed retry must not unwind
            # the timer that called it; the slot is tried again a full
            # ``retry_after`` later.
            try:
                self._retry(slot, now)
            except Exception:
                pass
        # Settling a slot may launch another, which arms a check itself.
        if self._launched_at and not (self._stall_check.alive or self._detached):
            self._arm_stall_check()

    def _retry(self, slot: int, now: float) -> None:
        """Propose a stalled in-flight slot again, body first (module doc)."""
        self._launched_at[slot] = now
        commands = tuple(cmd for cmd, _stamp in self._in_flight[slot])
        self.node.broadcast(("body", slot, commands))
        self.general.propose(batch_digest(commands), index=slot)
        self.slots_retried += 1

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Leave the decision chain and cancel the launch and stall timers."""
        super().detach()
        self._token.cancel()
        self._stall_check.cancel()

    async def drain(self) -> None:
        """Wait until every submitted command's slot has decided."""
        await self._drained.wait()


__all__ = [
    "ConcurrentGeneral",
    "IndexReuseError",
    "IndexedKey",
    "LogCoordinator",
    "WindowBounds",
    "indexed_general",
    "window_bounds",
]
