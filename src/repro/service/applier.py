"""Replica-side applier with per-slot protocol-state retirement.

Extends the :class:`~repro.extensions.state_machine.Replica` gap-healing
applier for service duty:

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
  so whoever supplies the preimage is irrelevant.  ``applied``, outcomes,
  :meth:`digest` and the f+1 adoption path all hold *bodies*.
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
from typing import Callable, Iterable, Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.params import BOTTOM
from repro.extensions.state_machine import ApplyCallback, Replica
from repro.runtime.api import INERT_TIMER, Delivery, TimerHandle


def batch_digest(batch: tuple) -> str:
    """A slot's agreement value: 128 bits of SHA-256 over the batch, as hex.

    ``repr`` of a tuple of wire-safe scalars is deterministic and survives
    the wire unchanged, and a hex ``str`` is itself wire-safe.
    """
    return hashlib.sha256(repr(batch).encode()).hexdigest()[:32]


class ReplicaApplier(Replica):
    """Applies decided slots in order, then retires their protocol state."""

    def __init__(
        self,
        node: ProtocolNode,
        primary: int,
        retire_after_d: float = 6.0,
        on_apply: Optional[ApplyCallback] = None,
    ) -> None:
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
        #: Slots ahead of ``next_index`` a body is kept for.  The service
        #: sets it to the coordinator's ``unretired_cap + window``: a
        #: correct primary never launches further ahead of a replica that
        #: keeps up, and a replica that does not is healed by fetch/repair.
        self.body_span = 32
        #: ``body_req`` rounds sent (0 with a correct primary and no loss).
        self.body_fetches = 0
        #: Bodies refused because their hash differed from the decided digest.
        self.bodies_rejected = 0
        self._fetch_timer: TimerHandle = INERT_TIMER
        #: Called with the new watermark whenever retirement advances; a
        #: coordinator handed this applier wires it to its
        #: :meth:`~repro.service.coordinator.LogCoordinator.notify_retired`
        #: so a launch pipeline gated on unretired slots resumes promptly.
        self.on_retire: Optional[Callable[[int], None]] = None
        super().__init__(node, primary, on_apply)
        node.instance_gate = self._gate
        node.on_service_payload = self._on_service_payload

    def detach(self) -> None:
        super().detach()
        self._fetch_timer.cancel()
        self.node.on_service_payload = None

    # ------------------------------------------------------------------
    # Decision intake (aborts included, unlike the base Replica)
    # ------------------------------------------------------------------
    def _on_decision(self, decision: Decision) -> None:
        general = decision.general
        if not (isinstance(general, tuple) and general[0] == self.primary):
            return
        index = general[1]
        if index < self._next_index or index in self._pending:
            return  # duplicate (e.g. a re-decision after recovery)
        self._pending[index] = decision.value
        self._drain()
        self._schedule_retire(index)

    def _drain(self) -> None:
        pending = self._pending
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
                if not self._fetch_timer.alive:
                    self._arm_fetch()
                return
            del pending[index]
            self._outcomes[index] = outcome
            self._next_index += 1
        self._fetch_timer.cancel()

    # ------------------------------------------------------------------
    # Batch bodies: pushed once by the primary, fetched from peers if lost
    # ------------------------------------------------------------------
    def _on_service_payload(self, envelope: Delivery) -> None:
        payload = envelope.payload
        if not (isinstance(payload, tuple) and payload):
            return
        if payload[0] == "body" and len(payload) == 3:
            self._on_body(envelope.sender, payload[1], payload[2])
        elif payload[0] == "body_req" and len(payload) == 2:
            self._on_body_req(envelope.sender, payload[1])

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

    def _arm_fetch(self) -> None:
        self._fetch_timer = self.node.after_local(
            self.node.params.d, self._fetch, tag=f"body_req:{self.primary}"
        )

    def _fetch(self) -> None:
        """The head-of-line slot has been held for ``d``: ask every peer.

        Armed only while that slot is held, and cancelled by the drain that
        releases it.  Decided slots queued behind it whose body is missing
        too are asked for in the same round, so a replica that fell behind
        the span catches up in one round, not one ``d`` per slot.
        """
        self.body_fetches += 1
        bodies = self._bodies
        horizon = self._next_index + self.body_span
        for slot, decided in self._pending.items():
            if decided is BOTTOM or slot >= horizon:
                continue
            held = bodies.get(slot)
            if held is None or held[0] != decided:
                self.node.broadcast(("body_req", slot))
        self._arm_fetch()

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
        """Catch-up: adopt slot outcomes fetched out of band.

        ``entries`` are ``(index, outcome)`` pairs in slot order (a batch
        tuple, or ``BOTTOM`` for a skipped slot) whose provenance the
        *caller* vouches for -- the service layer only adopts outcomes
        matching at f+1 peers, so at least one correct replica applied
        each.  A slot this replica has itself decided outranks the vote: an
        entry that agrees supplies the held slot's body, one that does not
        is refused, counted in ``bodies_rejected``, and ends the adoption
        there.  Returns how many entries were taken.

        An adopted slot this replica never decided may still hold an
        instance (built from stray relays); it is scheduled for retirement
        like a decided one, or the watermark would stop in front of it.
        """
        adopted = 0
        pending = self._pending
        for index, outcome in entries:
            if index < self._next_index:
                continue
            value = outcome if outcome is BOTTOM else batch_digest(outcome)
            if index not in pending:
                pending[index] = value
                if (self.primary, index) in self.node.instances:
                    self._schedule_retire(index)
            elif pending[index] != value:
                self.bodies_rejected += 1
                break
            if outcome is not BOTTOM:
                self._bodies[index] = (value, outcome)
            adopted += 1
        if adopted:
            self._drain()
        return adopted

    @property
    def bodies_held(self) -> int:
        """Batch bodies stored for slots not yet finalized."""
        return len(self._bodies)


__all__ = ["ReplicaApplier", "batch_digest"]
