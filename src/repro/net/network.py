"""The message-passing fabric connecting nodes.

Responsibilities:

* point-to-point sends with authenticated sender identity (the receiver
  always learns the true ``sender`` -- the model's one unbreakable guarantee
  once the network is correct);
* per-copy delivery decisions delegated to the active
  :class:`~repro.net.delivery.DeliveryPolicy`;
* *spurious injection* for the transient period: the fault injector may put
  arbitrary messages with arbitrary claimed senders in flight, modelling the
  paper's "the communication network may behave arbitrarily";
* accounting (messages sent / delivered / dropped) for the complexity
  experiments.

Determinism across execution layouts
------------------------------------
Per-copy delivery randomness comes from *per-sender* streams (lazy
``rng.split(f"sender/{i}")`` children of the network's stream), not one
shared stream in global execution order.  A node's sends always happen while
that node's own events execute, so each sender's draw sequence depends only
on its own local history, not on how other nodes' events interleave with
it.  That fixes each sender's draw order, and the golden rows and trace
digests pin it.
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional, Sequence

from repro.net.delivery import DeliveryPolicy
from repro.runtime.api import Envelope
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

Receiver = Callable[[Envelope], None]


class Network:
    """Bounded-delay authenticated network bound to one simulator."""

    def __init__(
        self,
        sim: Simulator,
        policy: DeliveryPolicy,
        rng: RandomSource,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._sim = sim
        self._policy = policy
        self._rng = rng
        self._sender_rngs: dict[int, RandomSource] = {}
        self._tracer = tracer
        self._receivers: dict[int, Receiver] = {}
        # Bound once (shadowing the method): every queued run shares it.
        self._deliver_copy = self._deliver_copy
        self._node_ids: Optional[list[int]] = None  # cached sorted ids
        self._partitioned: set[int] = set()
        self.sent_count = 0
        self.delivered_count = 0
        # Drop accounting is split by cause so scenario reports can attribute
        # loss: copies suppressed by a node cut (partition/crash isolation)
        # vs. copies the delivery policy chose to drop.
        self.dropped_partition = 0
        self.dropped_policy = 0

    @property
    def dropped_count(self) -> int:
        """Total dropped copies (partition-suppressed + policy-dropped)."""
        return self.dropped_partition + self.dropped_policy

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node_id: int, receiver: Receiver) -> None:
        """Attach a node's message handler."""
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} already registered")
        self._receivers[node_id] = receiver
        self._node_ids = None

    @property
    def node_ids(self) -> list[int]:
        """All registered node identifiers, sorted."""
        if self._node_ids is None:
            self._node_ids = sorted(self._receivers)
        return list(self._node_ids)

    # ------------------------------------------------------------------
    # Policy control (scenario transitions, e.g. incoherent -> coherent)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> DeliveryPolicy:
        """The active delivery policy."""
        return self._policy

    def set_policy(self, policy: DeliveryPolicy) -> None:
        """Swap the delivery policy (e.g. when the network becomes correct)."""
        self._policy = policy

    def partition(self, node_id: int) -> None:
        """Disconnect a node entirely (crash / isolation modelling)."""
        self._partitioned.add(node_id)

    def heal(self, node_id: int) -> None:
        """Reconnect a partitioned node."""
        self._partitioned.discard(node_id)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, receiver: int, payload: object) -> None:
        """Send one message; the policy decides delay/drop per copy."""
        if receiver not in self._receivers:
            raise ValueError(f"unknown receiver {receiver}")
        self._send_copies(sender, (receiver,), payload)

    def broadcast(self, sender: int, payload: object) -> None:
        """Send one copy to every registered node (including the sender).

        The model has no broadcast medium: this is n point-to-point sends and
        a Byzantine sender may instead call :meth:`send` selectively.
        """
        node_ids = self._node_ids
        if node_ids is None:
            node_ids = self._node_ids = sorted(self._receivers)
        self._send_copies(sender, node_ids, payload)

    def _send_copies(
        self, sender: int, receivers: Sequence[int], payload: object
    ) -> None:
        """One sweep over ``receivers``, each copy exactly as a lone send.

        The policy, the sender's stream and the partition set are bound
        once, counters are summed once, and only the policy decision runs
        per copy.  The surviving copies' delivery instants go to
        :meth:`_queue_copies` in one call, as an ``array('d')``: no float
        object per copy outlives this sweep.
        """
        self.sent_count += len(receivers)
        tracer = self._tracer
        counts_only = None
        if tracer is not None and not tracer.enabled:
            # Disabled tracer: batch-count the sends, skip per-copy event
            # builds, and keep only the count-only handle for drops.
            counts_only = tracer
            tracer = None
            counts_only.bump_many("send", len(receivers))
        decide = self._policy.decide
        rng = self._sender_rng(sender)
        partitioned = self._partitioned
        now = self._sim.now
        sender_cut = sender in partitioned
        cut = dropped = 0
        kept: list[int] = []
        times = array("d")
        for receiver in receivers:
            if tracer is not None:
                tracer.record(now, sender, "send", receiver=receiver, payload=payload)
            if sender_cut or receiver in partitioned:
                cut += 1
                continue
            decision = decide(sender, receiver, payload, rng)
            if decision.drop:
                if decision.partition:
                    cut += 1
                else:
                    dropped += 1
                if tracer is not None:
                    tracer.record(
                        now, sender, "drop", receiver=receiver, payload=payload
                    )
                elif counts_only is not None:
                    counts_only.bump("drop")
                continue
            kept.append(receiver)
            times.append(now + decision.delay)
        self.dropped_partition += cut
        self.dropped_policy += dropped
        if times:
            # A wave that lost no copy shares the receivers sequence.
            self._queue_copies(
                sender,
                receivers if len(kept) == len(receivers) else kept,
                payload,
                now,
                times,
            )

    def inject_spurious(
        self,
        claimed_sender: int,
        receiver: int,
        payload: object,
        delay: float = 0.0,
    ) -> None:
        """Put a forged message in flight (transient-fault modelling only).

        Bypasses the delivery policy; the claimed sender identity is *not*
        authenticated.  Legal only while the network is faulty -- callers
        (the transient injector) enforce that scenario-side.
        """
        now = self._sim.now
        self._queue_copies(
            claimed_sender, (receiver,), payload, now, array("d", (now + delay,))
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sender_rng(self, sender: int) -> RandomSource:
        rng = self._sender_rngs.get(sender)
        if rng is None:
            rng = self._sender_rngs[sender] = self._rng.split(f"sender/{sender}")
        return rng

    def _queue_copies(
        self,
        sender: int,
        receivers: Sequence[int],
        payload: object,
        sent_at: float,
        times: array,
    ) -> None:
        """Queue copy ``k`` to ``receivers[k]``, due at ``times[k]``.

        One run on the kernel: the copies hold no envelope until delivery.
        """
        self._sim.schedule_run(
            times, self._deliver_copy, (sender, receivers, payload, sent_at)
        )

    def _deliver_copy(self, wave: tuple, k: int) -> None:
        sender, receivers, payload, sent_at = wave
        self._deliver_now(
            Envelope(sender, receivers[k], payload, sent_at, self._sim._now)
        )

    def _deliver_now(self, envelope: Envelope) -> None:
        receiver = envelope.receiver
        if receiver in self._partitioned:
            self.dropped_partition += 1
            return
        self.delivered_count += 1
        tracer = self._tracer
        if tracer is not None:
            if tracer.enabled:
                tracer.record(
                    envelope.delivered_at,
                    receiver,
                    "deliver",
                    sender=envelope.sender,
                    payload=envelope.payload,
                )
            else:
                tracer.bump("deliver")
        self._receivers[receiver](envelope)


__all__ = ["Envelope", "Network", "Receiver"]
