"""Replica-side applier with per-slot protocol-state retirement.

Applies decided slots in index order, buffering out-of-order decisions
until the gap below them heals, with service duty on top:

* **The decided value is a digest; the batch arrives once, separately.**
  The primary broadcasts ``("body", slot, batch)`` and proposes
  :func:`batch_digest` of it, so a decided slot is applied only once a
  body whose hash equals the decided digest is in hand.  Bodies pushed by
  the authenticated primary are kept for ``body_span`` slots ahead of
  ``next_index`` (nothing else is stored, so the store is bounded); a
  decided slot at the head of the line with no matching body *holds*
  in-order draining there, and after ``d`` the replica broadcasts
  ``("body_req", slot)`` for it (and for any decided slot queued behind
  it that lacks its body too) -- re-armed every ``d``, one timer at most
  -- which any replica holding the slot's body answers point-to-point.  A
  fetched body is accepted on hash match alone: the digest was agreed on,
  so whoever supplies the preimage is irrelevant.  ``applied``, outcomes
  and :meth:`digest` hold *bodies*.
* **A laggard heals itself from f+1 peer answers.**  Once the head slot
  has stayed undecided for ``retire_after_d * d`` while the replica holds
  evidence that it exists (a later slot decided, or the head's body) --
  by then peers have retired it, so relays cannot decide it here -- the
  replica broadcasts ``("outcome_req", next_index)`` on the fetch timer,
  and again while the head stays put, the pause doubling from ``d`` up to
  the wait.  A head that adoption moved to is asked for once at once,
  then waits afresh.  A slot decided ``body_span`` or more ahead ends the
  wait at once: a correct primary's gate launched it only after retiring
  the head.  Peers answer point-to-point with ``("outcomes", lo, values)``,
  the digests (or ``BOTTOM``) of up to ``body_span`` slots they finalized
  from ``lo`` on.  Answers are tallied per authenticated sender inside
  ``[next_index, next_index + body_span)``; the contiguous prefix with
  one value vouched for by ``f + 1`` senders (so by a correct replica)
  goes through :meth:`adopt_entries`, and its bodies through
  ``body_req``.  A laggard that never sees a later slot (one respawned
  after the last slot, say) has no evidence and never asks.
* **Aborted slots become skips.**  ss-Byz-Agree's Agreement property covers
  BOTTOM: when a slot aborts, it aborts at every correct node, so recording
  the slot as an empty skip (and letting the coordinator re-submit its
  commands under a fresh slot) keeps all replicas' applied sequences
  identical without any extra coordination.
* **Applied slots retire.**  ``retire_after_d`` protocol-time units after a
  slot's decision lands, its :class:`~repro.core.agreement.
  AgreementInstance` is removed from the node entirely (state, timers, and
  its share of the cleanup tick's work).  Retirement advances a contiguous
  watermark in slot order -- a slot is only retired once every slot below
  it has been applied and retired.  The node's
  :attr:`~repro.core.agreement.ProtocolNode.instance_gate` refuses to build
  an instance for any slot already finalized here (retired or not) with
  one monotone check, so straggler relays neither resurrect retired keys
  nor plant a timer-less instance in front of the watermark.

The delay must comfortably exceed the protocol's own ``3d`` post-return
reset, so slow peers still receive this node's relays for the slot while
they matter; the default ``6d`` leaves the full relay tail intact.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Callable, Iterable, Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.messages import Value
from repro.core.params import BOTTOM
from repro.runtime.api import INERT_TIMER, Delivery, TimerHandle

ApplyCallback = Callable[[int, Value], None]


def batch_digest(batch: tuple) -> str:
    """A slot's agreement value: 128 bits of SHA-256 over the batch, as hex.

    ``repr`` of a tuple of wire-safe scalars is deterministic and survives
    the wire unchanged, and a hex ``str`` is itself wire-safe.
    """
    return hashlib.sha256(repr(batch).encode()).hexdigest()[:32]


class DecisionTap:
    """A chainable ``node.on_decision`` observer with clean teardown.

    Observers stack: each tap remembers the callback that was installed
    before it and forwards every decision to it, so several independent
    observers (the coordinator, the applier, a test probe) compose on one
    node.  :meth:`detach` splices the tap back *out* of the chain wherever
    it sits -- head or middle -- so observers can tear down in any order
    without orphaning each other.

    Subclasses implement :meth:`_on_decision`.
    """

    def __init__(self, node: ProtocolNode) -> None:
        self.node = node
        self._previous = node.on_decision
        self._detached = False
        node.on_decision = self._dispatch

    def _dispatch(self, decision: Decision) -> None:
        if self._previous is not None:
            self._previous(decision)
        if not self._detached:
            self._on_decision(decision)

    def _on_decision(self, decision: Decision) -> None:
        raise NotImplementedError

    def detach(self) -> None:
        """Remove this tap from the node's decision chain.

        Restores ``node.on_decision`` to the previous callback when this
        tap is at the head; when a later tap was stacked on top, the later
        tap's back-pointer is re-spliced past this one instead.  If a
        foreign (non-tap) callback was interposed the tap cannot be
        spliced out structurally; it stays in the chain as an inert
        pass-through.
        """
        if self._detached:
            return
        self._detached = True
        if self.node.on_decision == self._dispatch:
            self.node.on_decision = self._previous
            return
        cursor = self.node.on_decision
        while cursor is not None:
            owner = getattr(cursor, "__self__", None)
            if not isinstance(owner, DecisionTap):
                return
            if owner._previous == self._dispatch:
                owner._previous = self._previous
                return
            cursor = owner._previous


class ReplicaApplier(DecisionTap):
    """Applies decided slots in order, then retires their protocol state."""

    def __init__(
        self,
        node: ProtocolNode,
        primary: int,
        retire_after_d: float = 6.0,
        on_apply: Optional[ApplyCallback] = None,
    ) -> None:
        self.primary = primary
        self.on_apply = on_apply
        #: Applied ``(slot, batch)`` pairs, in slot order.
        self.applied: list[tuple[int, Value]] = []
        #: Decided slots not yet applied: slot -> digest | BOTTOM.
        self._pending: dict[int, Value] = {}
        self._next_index = 0
        self.retire_after_d = retire_after_d
        #: Slot indexes that aborted (recorded so sequences stay dense).
        self.skipped: list[int] = []
        #: Individual commands applied (a slot value is a batch tuple).
        self.commands_applied = 0
        self.retired_count = 0
        self._retire_ready: set[int] = set()
        self._retire_next = 0
        self._outcomes: dict[int, object] = {}
        #: Bodies for slots not yet finalized: slot -> (digest, batch).
        #: Keys stay within ``[next_index, next_index + body_span)``.
        self._bodies: dict[int, tuple[str, tuple]] = {}
        #: Slots ahead of ``next_index`` a body is kept for, and outcome
        #: answers are tallied for.  The service sets it from
        #: :func:`~repro.service.coordinator.window_bounds`: a correct
        #: primary never launches further ahead of a replica that keeps up,
        #: and a replica that does not heals by fetch and f+1 adoption.
        self.body_span = 32
        #: ``body_req`` rounds sent (0 with a correct primary and no loss).
        self.body_fetches = 0
        #: Bodies refused because their hash differed from the decided digest.
        self.bodies_rejected = 0
        #: Slots recorded through :meth:`adopt_entries` (0 on a clean run).
        self.slots_adopted = 0
        self._fetch_timer: TimerHandle = INERT_TIMER
        #: The held head slot the fetch timer is pacing ``body_req`` for, and
        #: the slot the last ``body_req`` round asked up to (exclusive).
        self._held_head = -1
        self._fetched_to = 0
        #: Local time the undecided head began waiting with evidence that
        #: it exists (None while there is none).
        self._waiting_since: Optional[float] = None
        #: The head slot the last ``outcome_req`` asked from, the pause
        #: before asking for it again, and whether adoption moved the head
        #: since (then the new head is asked for at once).
        self._asked = -1
        self._ask_gap = node.params.d
        self._chase = False
        #: slot -> {sender: digest | BOTTOM}: outcome answers in the span.
        self._votes: dict[int, dict[int, object]] = {}
        #: Called with the new watermark whenever retirement advances; a
        #: coordinator handed this applier wires it to its
        #: :meth:`~repro.service.coordinator.LogCoordinator.notify_retired`
        #: so a launch pipeline gated on unretired slots resumes promptly.
        self.on_retire: Optional[Callable[[int], None]] = None
        super().__init__(node)
        node.instance_gate = self._gate
        node.on_service_payload = self._on_service_payload

    def detach(self) -> None:
        super().detach()
        self._fetch_timer.cancel()
        self.node.on_service_payload = None

    # ------------------------------------------------------------------
    # Decision intake (aborts included)
    # ------------------------------------------------------------------
    def _on_decision(self, decision: Decision) -> None:
        general = decision.general
        if not (isinstance(general, tuple) and general[0] == self.primary):
            return
        index = general[1]
        if index < self._next_index or index in self._pending:
            return  # duplicate (e.g. a re-decision after recovery)
        if index == self._next_index:
            self._waiting_since = None  # the head moved the ordinary way
        elif index >= self._next_index + self.body_span:
            # A correct primary's gate launched this slot only after it had
            # retired the head slot: the wait for it is over already.
            self._waiting_since = -math.inf
        self._pending[index] = decision.value
        self._drain()
        self._schedule_retire(index)

    def _drain(self) -> None:
        pending = self._pending
        start = self._next_index
        while self._next_index in pending:
            index = self._next_index
            value = pending[index]
            held = self._bodies.pop(index, None)
            if value is BOTTOM:
                outcome = BOTTOM  # a body stored for the slot goes with it
                self.skipped.append(index)
            elif held is not None and held[0] == value:
                outcome = held[1]
                self.applied.append((index, outcome))
                self.commands_applied += len(outcome)
                if self.on_apply is not None:
                    self.on_apply(index, outcome)
            else:
                # Decided, but the body is missing or is not the one agreed
                # on: hold here (nothing after it may apply) and go fetch.
                if held is not None:
                    self.bodies_rejected += 1
                waiting = self._waiting_since is not None
                if waiting and index >= self._fetched_to:
                    # Reached without the head's own decision: no push is on
                    # its way, so ask for the body at once.
                    self._fetch()
                elif self._held_head != index or not self._fetch_timer.alive:
                    self._arm_fetch(self.node.params.d)
                self._held_head = index
                return
            del pending[index]
            self._outcomes[index] = outcome
            self._next_index += 1
        if self._next_index != start:
            self._waiting_since = None  # a new head waits afresh
        self._watch_head()

    def _watch_head(self, fired: bool = False) -> None:
        """Time the undecided head's wait while there is evidence it exists.

        Once the wait is over, ask when the head is new and each time the
        fetch timer fires (``fired``), ``_ask_gap`` apart.
        """
        head = self._next_index
        if not (self._pending or head in self._bodies):
            self._waiting_since = None
            self._fetch_timer.cancel()
            return
        now = self.node.local_now()
        d = self.node.params.d
        wait = self.retire_after_d * d
        if self._waiting_since is None:
            self._waiting_since = now
            self._ask_gap = d
        due = self._waiting_since + wait
        # A fired timer's instant has come even a rounding error early.
        over = now + 1e-9 * d >= due
        new = head != self._asked
        if (over and (fired or new)) or (new and self._chase):
            self._chase = False
            self.request_outcomes()
            self._arm_fetch(self._ask_gap)
            self._ask_gap = min(2 * self._ask_gap, wait)
        elif not self._fetch_timer.alive:
            self._arm_fetch(max(0.0, due - now))

    # ------------------------------------------------------------------
    # Batch bodies: pushed once by the primary, fetched from peers if lost
    # ------------------------------------------------------------------
    def _on_service_payload(self, envelope: Delivery) -> None:
        payload = envelope.payload
        if not (isinstance(payload, tuple) and payload):
            return
        kind, sender = payload[0], envelope.sender
        if kind == "body" and len(payload) == 3:
            self._on_body(sender, payload[1], payload[2])
        elif kind == "body_req" and len(payload) == 2:
            self._on_body_req(sender, payload[1])
        elif sender == self.node.node_id:
            return  # a replica's own answers vouch for nothing
        elif kind == "outcome_req" and len(payload) == 2:
            self._on_outcome_req(sender, payload[1])
        elif kind == "outcomes" and len(payload) == 3:
            self._on_outcomes(sender, payload[1], payload[2])

    def _on_body(self, sender: int, slot: object, batch: object) -> None:
        if not (isinstance(slot, int) and isinstance(batch, tuple)):
            return
        if not self._next_index <= slot < self._next_index + self.body_span:
            return
        decided = self._pending.get(slot)
        if decided is None:
            # Undecided: only the primary's push is worth keeping.
            if sender == self.primary:
                self._bodies[slot] = (batch_digest(batch), batch)
                if slot == self._next_index:
                    self._watch_head()
        elif decided is not BOTTOM:
            digest = batch_digest(batch)
            if digest == decided:
                self._bodies[slot] = (digest, batch)
                self._drain()
            else:
                self.bodies_rejected += 1

    def _on_body_req(self, sender: int, slot: object) -> None:
        if not isinstance(slot, int):
            return
        body = self._outcomes.get(slot)
        if body is None and slot in self._bodies:
            body = self._bodies[slot][1]  # unverified; the requester checks
        if body is not None and body is not BOTTOM:
            self.node.send(sender, ("body", slot, body))

    def _arm_fetch(self, delay: float) -> None:
        self._fetch_timer.cancel()
        self._fetch_timer = self.node.after_local(
            delay, self._on_fetch_timer, tag=f"fetch:{self.primary}"
        )

    def _on_fetch_timer(self) -> None:
        if self._next_index in self._pending:
            self._fetch()
        else:
            self._watch_head(fired=True)

    def _fetch(self) -> None:
        """The head-of-line slot has been held for ``d``: ask every peer.

        Armed only while that slot is held, and re-armed every ``d`` until
        the drain that releases it.  Decided slots queued behind it whose
        body is missing too are asked for in the same round, so a replica
        that fell behind the span catches up in one round, not one ``d``
        per slot.
        """
        self.body_fetches += 1
        bodies = self._bodies
        horizon = self._fetched_to = self._next_index + self.body_span
        for slot, decided in self._pending.items():
            if decided is BOTTOM or slot >= horizon:
                continue
            held = bodies.get(slot)
            if held is None or held[0] != decided:
                self.node.broadcast(("body_req", slot))
        self._arm_fetch(self.node.params.d)

    # ------------------------------------------------------------------
    # Catch-up: f+1 matching outcome answers, node to node
    # ------------------------------------------------------------------
    def request_outcomes(self) -> None:
        """Ask every peer for the slots it finalized from ``next_index`` on.

        The first ask for a head also asks the primary (only its push is
        kept for an undecided slot) for the span's bodies again, so they are
        usually in hand when the answers are adopted.
        """
        head = self._next_index
        if head != self._asked:
            for slot in range(head, head + self.body_span):
                if slot not in self._pending and slot not in self._bodies:
                    self.node.send(self.primary, ("body_req", slot))
        self._asked = head
        self.node.broadcast(("outcome_req", head))

    def _on_outcome_req(self, sender: int, lo: object) -> None:
        if not isinstance(lo, int) or lo < 0:
            return
        values = []
        for slot in range(lo, min(lo + self.body_span, self._next_index)):
            outcome = self._outcomes[slot]
            values.append(
                outcome if outcome is BOTTOM else batch_digest(outcome)
            )
        if values:
            self.node.send(sender, ("outcomes", lo, tuple(values)))

    def _on_outcomes(self, sender: int, lo: object, values: object) -> None:
        if not (isinstance(lo, int) and isinstance(values, tuple)):
            return
        head = self._next_index
        end = head + self.body_span
        votes = {slot: by for slot, by in self._votes.items() if slot >= head}
        for slot, value in enumerate(values, lo):
            if head <= slot < end and (value is BOTTOM or type(value) is str):
                votes.setdefault(slot, {})[sender] = value
        self._votes = votes
        # The contiguous prefix with one value vouched for by f+1 senders.
        f = self.node.params.f
        entries = []
        for slot in range(head, end):
            counts = Counter(votes.get(slot, {}).values())
            vouched = [value for value, count in counts.items() if count > f]
            if len(vouched) != 1:
                break
            entries.append((slot, vouched[0]))
        self.adopt_entries(entries)

    # ------------------------------------------------------------------
    # Retirement (measured, contiguous, gate-backed)
    # ------------------------------------------------------------------
    def _schedule_retire(self, index: int) -> None:
        self.node.after_local(
            self.retire_after_d * self.node.params.d,
            lambda: self._mark_retirable(index),
            tag=f"retire:{self.primary}:{index}",
        )

    def _mark_retirable(self, index: int) -> None:
        if index < self._retire_next:
            return  # already past the watermark (stale timer after churn)
        self._retire_ready.add(index)
        self._advance_retirement()

    def _advance_retirement(self) -> None:
        # The watermark only moves through *applied* slots, in order, so the
        # gate below stays a single monotone comparison.
        before = self._retire_next
        while self._retire_next < self._next_index:
            slot = self._retire_next
            if slot in self._retire_ready:
                self._retire_ready.discard(slot)
                if self.node.retire_instance((self.primary, slot)):
                    self.retired_count += 1
                self._retire_next += 1
            elif (self.primary, slot) not in self.node.instances:
                # Nothing to retire: the instance was wiped by a crash (its
                # retire timer died with the node's timers).
                self._retire_next += 1
            else:
                break
        if self._retire_next > before and self.on_retire is not None:
            self.on_retire(self._retire_next)

    def _gate(self, general: object) -> bool:
        # A slot below next_index is finalized here (applied, skipped or
        # adopted): an instance built for it now would get no retire timer
        # and stop the watermark in front of it.
        if isinstance(general, tuple) and general[0] == self.primary:
            return general[1] >= self._next_index
        return True

    # ------------------------------------------------------------------
    # Introspection and catch-up
    # ------------------------------------------------------------------
    @property
    def next_index(self) -> int:
        """First slot index not yet applied or skipped."""
        return self._next_index

    @property
    def retire_watermark(self) -> int:
        """First slot index not yet retired (contiguous from zero)."""
        return self._retire_next

    @property
    def live_slot_instances(self) -> int:
        """This primary's slot instances still held by the node."""
        primary = self.primary
        return sum(
            1
            for key in self.node.instances
            if isinstance(key, tuple) and key[0] == primary
        )

    def digest(self) -> str:
        """Order-sensitive digest of the applied (index, value) sequence."""
        h = hashlib.sha256()
        for index, value in self.applied:
            h.update(repr((index, value)).encode())
        return h.hexdigest()[:16]

    def outcome(self, index: int) -> Optional[object]:
        """The finalized outcome of one slot (BOTTOM = skipped), if known."""
        return self._outcomes.get(index)

    def adopt_entries(self, entries: Iterable[tuple[int, object]]) -> int:
        """Catch-up: record vouched slot values as if decided here.

        ``entries`` are ``(index, digest | BOTTOM)`` pairs in slot order
        whose provenance the *caller* vouches for -- the outcome tally only
        passes values ``f + 1`` peers answered identically, so at least one
        correct replica finalized each.  A slot this replica has itself
        decided outranks the vote: an entry that agrees is passed over, one
        that does not is refused, counted in ``bodies_rejected``, and ends
        the adoption there.  Returns how many slots were newly recorded;
        their bodies come through ``body_req``.

        An adopted slot this replica never decided may still hold an
        instance (built from stray relays); it is scheduled for retirement
        like a decided one, or the watermark would stop in front of it.
        """
        adopted = 0
        pending = self._pending
        for index, value in entries:
            if index < self._next_index:
                continue
            if index not in pending:
                pending[index] = value
                adopted += 1
                if (self.primary, index) in self.node.instances:
                    self._schedule_retire(index)
            elif pending[index] != value:
                self.bodies_rejected += 1
                break
        if adopted:
            self.slots_adopted += adopted
            self._chase = True
            self._drain()
        return adopted

    @property
    def bodies_held(self) -> int:
        """Batch bodies stored for slots not yet finalized."""
        return len(self._bodies)


__all__ = ["ApplyCallback", "DecisionTap", "ReplicaApplier", "batch_digest"]
