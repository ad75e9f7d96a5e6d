"""WireTransport: the one wall-clock message fabric, under two carriers.

Both wall-clock backends move the same thing the same way: a payload is
encoded once into an authenticated frame body (:mod:`repro.runtime.framing`),
each copy gets a seeded per-copy delay/drop draw from the sim's
:class:`~repro.net.delivery.DeliveryPolicy` objects *at the sender*, a
held-back copy waits out its delay on the sender's loop, and copies whose
release moments land in the same loop tick are coalesced into one BATCH
datagram per (receiver, sender) run.  All of that lives here, once.

Held-back copies wait in one heap per transport, ordered by
``(release_at, seq)``, behind a single loop timer armed for the head -- not
one loop timer per copy -- so copies due at the same instant are released
in send order, and :meth:`WireTransport.close` empties the heap and cancels
that one timer.

A *carrier* subclass supplies only what genuinely differs:

* the clock -- :meth:`now`;
* registration -- who may attach a receiver, and ``routes``, the mapping
  whose keys are the node ids that can be sent to;
* how a sealed datagram reaches its receiver -- :meth:`_transmit`, which
  ends (here or in another process) in one :meth:`_deliver_frames` call.

:class:`~repro.runtime.aio.AsyncioTransport` decodes on the spot and hands the
frames to the loop; :class:`~repro.runtime.socket_host.SocketTransport` puts
the bytes on a UDP socket and decodes what its own socket receives.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from typing import Callable, Mapping, Optional

from repro.net.delivery import DeliveryPolicy, FixedDelay, LinkPartitionPolicy
from repro.net.network import Envelope
from repro.runtime.framing import FrameBatcher, FrameDecoder, FrameEncoder
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer


class WireTransport:
    """Policy draws, drop matrix, encode-once sends, coalescing, counters.

    Mirrors the :class:`~repro.net.network.Network` contract the protocol
    nodes rely on -- ``register`` / ``send`` / ``broadcast`` / ``node_ids``
    plus sent/delivered/dropped accounting.  The policy draws per-copy
    delays (in protocol units) from the seeded stream, so the *intended*
    delays are deterministic even though actual arrival interleaving is at
    the loop's (and, over sockets, the kernel's) mercy.

    Must be constructed inside a coroutine: it binds to the running loop.
    """

    def __init__(
        self,
        time_scale: float,
        auth_key: bytes,
        rand: RandomSource,
        routes: Optional[Mapping[int, object]] = None,
        policy: Optional[DeliveryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale!r}")
        self.loop = asyncio.get_running_loop()
        self.time_scale = time_scale
        self.auth_key = auth_key
        self._encoder = FrameEncoder(auth_key)
        #: What the carrier hands :func:`~repro.runtime.framing.decode_frames`
        #: with each datagram; its ``memo_hits`` / ``compiled`` / ``generic``
        #: counters say which decode path this transport's envelopes took.
        self.decoder = FrameDecoder(auth_key)
        self._batcher = FrameBatcher(self._encoder, self._transmit)
        self._flush_scheduled = False
        #: Copies waiting out their policy delay, as a heap of
        #: ``(release_at, seq, receiver, sender, body)`` on the loop's clock;
        #: one loop timer, armed for the head, releases them.
        self._held: list[tuple[float, int, int, int, bytes]] = []
        self._held_seq = 0
        self._release_timer: Optional[asyncio.TimerHandle] = None
        self._policy = policy
        self._rand = rand
        self._tracer = tracer
        self._receivers: dict[int, Callable[[Envelope], None]] = {}
        #: Keys are the node ids that can be sent to.  In-process that is
        #: whoever registered; over sockets it is the address book.
        self._routes: Mapping[int, object] = (
            routes if routes is not None else self._receivers
        )
        self._isolated: frozenset[int] = frozenset()
        self._closed = False
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        #: Copies suppressed by injected link faults (partition cuts and
        #: isolation) -- kept separate from ordinary policy drops so live
        #: runs can attribute loss to its cause, like the sim network does.
        self.dropped_fault_count = 0
        #: Datagrams refused at the receiver: truncated, oversized, garbage,
        #: or failing authentication.  Never delivered, always counted.
        self.rejected_count = 0
        #: Datagrams emitted.  With coalescing this is <= sent_count -
        #: dropped_count; the gap is the batching win.
        self.datagrams_sent = 0

    # ------------------------------------------------------------------
    # Live fault injection (sender-side drop matrix)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> Optional[DeliveryPolicy]:
        return self._policy

    def set_policy(self, policy: Optional[DeliveryPolicy]) -> None:
        """Swap the delivery policy mid-run (live ``SwapPolicy``)."""
        self._policy = policy

    def set_partition(self, island: frozenset[int]) -> None:
        """Cut ``island`` off by wrapping the live policy (sim semantics).

        Over sockets every child applies the same island spec to its own
        sender, so the cut is consistent cluster-wide: a copy crossing it
        is dropped before any byte leaves the process.
        """
        self._policy = LinkPartitionPolicy(
            self._policy if self._policy is not None else FixedDelay(0.0),
            frozenset(island),
        )

    def heal_partitions(self) -> None:
        """Heal every cut, unwrapping the wrapper stack entirely."""
        policy = self._policy
        while isinstance(policy, LinkPartitionPolicy):
            policy = policy.inner
        self._policy = policy

    def isolate(self, nodes) -> None:
        """Hard-disconnect nodes: every copy touching them is suppressed."""
        self._isolated = self._isolated | frozenset(nodes)

    def reconnect(self, nodes) -> None:
        """Undo :meth:`isolate` for the given nodes."""
        self._isolated = self._isolated - frozenset(nodes)

    def _fault_blocked(self, sender: int, receiver: int) -> bool:
        isolated = self._isolated
        return bool(isolated) and (sender in isolated or receiver in isolated)

    # ------------------------------------------------------------------
    # Carrier seam
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current protocol-local time on the axis every host shares."""
        raise NotImplementedError

    def _transmit(self, receiver: int, frame_buf, count: int) -> None:
        """Move one sealed datagram toward ``receiver``.

        ``frame_buf`` is the encoder's reused buffer: consume or copy it
        before returning.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node_id: int, receiver: Callable[[Envelope], None]) -> None:
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} already registered")
        self._receivers[node_id] = receiver

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._routes)

    # ------------------------------------------------------------------
    # Sending (policy consulted at the sender, before any byte moves)
    # ------------------------------------------------------------------
    def send(self, sender: int, receiver: int, payload: object) -> None:
        if self._closed:
            return
        if receiver not in self._routes:
            raise ValueError(f"unknown receiver {receiver}")
        body = self._encoder.encode_body(payload, self.now())
        self._send_copy(sender, receiver, payload, body)

    def broadcast(self, sender: int, payload: object) -> None:
        """n point-to-point copies, one per known node (self included).

        The envelope body is encoded **once** for the whole wave (one
        ``sent_at`` stamp, as the sim network stamps a broadcast once);
        only the per-copy policy draw and release instant differ.
        """
        if self._closed:
            return
        body = self._encoder.encode_body(payload, self.now())
        for receiver in self.node_ids:
            self._send_copy(sender, receiver, payload, body)

    def _send_copy(
        self, sender: int, receiver: int, payload: object, body: bytes
    ) -> None:
        self.sent_count += 1
        tracer = self._tracer
        if tracer is not None:
            if tracer.enabled:
                tracer.record(
                    self.now(), sender, "send", receiver=receiver, payload=payload
                )
            else:
                tracer.bump("send")
        if self._fault_blocked(sender, receiver):
            self.dropped_count += 1
            self.dropped_fault_count += 1
            return
        delay_units = 0.0
        if self._policy is not None:
            decision = self._policy.decide(sender, receiver, payload, self._rand)
            if decision.drop:
                self.dropped_count += 1
                if decision.partition:
                    self.dropped_fault_count += 1
                return
            delay_units = decision.delay
        if delay_units > 0.0:
            release_at = self.loop.time() + delay_units * self.time_scale
            self._held_seq += 1
            held = self._held
            heappush(held, (release_at, self._held_seq, receiver, sender, body))
            if held[0][1] == self._held_seq:  # a new head: re-aim the timer
                self._arm_release(release_at)
        else:
            self._enqueue(receiver, sender, body)

    def _arm_release(self, release_at: float) -> None:
        """Point the one release timer at ``release_at`` (the heap head)."""
        if self._release_timer is not None:
            self._release_timer.cancel()
        self._release_timer = self.loop.call_at(release_at, self._release_held)

    def _release_held(self) -> None:
        """Enqueue every held copy that is due, in ``(release_at, seq)`` order.

        The timer is always armed for the head, and the loop may run it up
        to one clock tick early, so the head counts as due regardless.
        """
        self._release_timer = None
        held = self._held
        due = max(held[0][0], self.loop.time())
        while held and held[0][0] <= due:
            _at, _seq, receiver, sender, body = heappop(held)
            self._enqueue(receiver, sender, body)
        if held:
            self._arm_release(held[0][0])

    def _enqueue(self, receiver: int, sender: int, body: bytes) -> None:
        """A copy's release moment arrived: queue it for the tick's flush.

        Coalescing happens here, not at send time -- only copies whose
        policy-drawn release moments land in the same loop tick share a
        datagram, so drawn delays still govern arrival order.
        """
        if self._closed:
            return
        self._batcher.add(receiver, sender, body)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Seal and transmit every coalesced run queued this tick."""
        self._flush_scheduled = False
        if not self._closed:
            self._batcher.flush()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _reject(self) -> None:
        """Count one datagram that failed to decode or authenticate."""
        self.rejected_count += 1
        if self._tracer is not None:
            self._tracer.bump("frame_rejected")

    def _deliver_frames(self, receiver: int, frames) -> None:
        """Hand one datagram's decoded frames to ``receiver``'s handler."""
        receive = self._receivers.get(receiver)
        if receive is None:
            self.rejected_count += 1  # authentic, but nobody is attached yet
            return
        now = self.now()
        tracer = self._tracer
        for sender, payload, sent_at in frames:
            self.delivered_count += 1
            envelope = Envelope(
                sender=sender,
                receiver=receiver,
                payload=payload,
                sent_at=sent_at,
                delivered_at=now,
            )
            if tracer is not None:
                if tracer.enabled:
                    tracer.record(
                        now, receiver, "deliver", sender=sender, payload=payload
                    )
                else:
                    tracer.bump("deliver")
            receive(envelope)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop moving messages: held-back and queued copies are dropped."""
        self._closed = True
        self._batcher.clear()
        self._held.clear()
        if self._release_timer is not None:
            self._release_timer.cancel()
            self._release_timer = None


__all__ = ["WireTransport"]
