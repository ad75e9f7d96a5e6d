"""Transient-fault injection.

Models the paper's pre-coherence chaos: "each node may be in an arbitrary
state ... any synchronization among the nodes might be lost".  Three levers,
used together by the stabilization experiments (E3):

1. **State corruption** -- every protocol variable on every chosen node is
   overwritten with plausible garbage (random anchors, fabricated quorum
   evidence, stale ``last(G, m)`` stamps, armed ``ready`` flags, ...).
2. **Clock corruption** -- absolute local readings are scrambled (rates are
   hardware and survive).
3. **In-flight garbage** -- forged protocol messages with arbitrary claimed
   senders are placed on the wire, modelling both the faulty network period
   and messages "sent" by nodes while they were faulty.

Targeted (adversarial) corruptions are layered on top of the random ones:
they construct exactly the near-miss states the paper's Claims 1-5 and
Lemma 2 guard against, e.g. a forged almost-complete ``ready`` quorum.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.agreement import ProtocolNode
from repro.core.messages import (
    ApproveMsg,
    InitiatorMsg,
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    ReadyMsg,
    SupportMsg,
    Value,
)
from repro.core.params import ProtocolParams
from repro.net.network import Network
from repro.sim.rand import RandomSource


def wipe_protocol_state(node: ProtocolNode) -> None:
    """Erase every protocol variable: the restart-from-empty-disk model.

    Shared by the sim timeline's ``Crash(state_loss=True)`` and the
    asyncio backend (a SIGKILLed process loses its heap for real; an
    in-process "crash" must lose it explicitly), so both paths agree on
    what "full state loss" means.
    """
    if not hasattr(node, "instances"):
        return
    node.instances.clear()
    node._last_initiation = None
    node._last_initiation_by_value.clear()
    node._failed_initiation_at = None


def crash_in_process(node, state_loss: bool) -> None:
    """Stun an in-process node; ``state_loss`` also wipes its state."""
    node.crash()
    node.cancel_timers()
    if state_loss:
        wipe_protocol_state(node)


def restart_in_process(
    node, injector: TransientFaultInjector | None = None
) -> None:
    """Revive a crashed in-process node, scrambled if given an injector.

    The background cleanup tick is re-armed (its chain died with the crash).
    """
    if not node.crashed:
        return
    node.resume()
    if injector is not None and hasattr(node, "instances"):
        injector.corrupt_node(node)
    if hasattr(node, "cleanup_interval_d"):
        node.every_local(
            node.cleanup_interval_d * node.params.d,
            node._cleanup_tick,
            tag=f"cleanup:{node.node_id}",
        )


class TransientFaultInjector:
    """Applies transient chaos to a set of protocol nodes and the network."""

    def __init__(
        self,
        params: ProtocolParams,
        rng: RandomSource,
        value_pool: Sequence[Value],
        generals: Sequence[int],
    ) -> None:
        self.params = params
        self.rng = rng
        self.value_pool = list(value_pool)
        self.generals = list(generals)

    # ------------------------------------------------------------------
    # Node state corruption
    # ------------------------------------------------------------------
    def corrupt_node(self, node: ProtocolNode) -> None:
        """Scramble all protocol state and the clock reading of one node."""
        # Make sure instances exist for every General we may corrupt against.
        for general in self.generals:
            node.instance(general)
        node.corrupt(self.rng, self.value_pool)
        if node.clock is not None:
            # Wall-clock backends own no corruptible clock object; state
            # corruption alone is the arbitrary-state model there.
            node.clock.corrupt_offset(
                self.rng.uniform(-self.params.delta_stb, self.params.delta_stb)
            )

    def corrupt_nodes(self, nodes: Sequence[ProtocolNode]) -> None:
        """Corrupt many nodes."""
        for node in nodes:
            self.corrupt_node(node)

    # ------------------------------------------------------------------
    # Targeted near-miss states (the hazards the lemmas guard against)
    # ------------------------------------------------------------------
    def plant_fake_ready_wave(self, node: ProtocolNode, general: int, value: Value) -> None:
        """Arm ``ready`` and plant an almost-complete ready quorum.

        One more forged ready message and the node would run Line N4 -- the
        exact state Claim 4 shows cannot cascade once the system is stable.
        """
        inst = node.instance(general)
        now = node.local_now()
        inst.ia._ready_flag(value).set(now)
        needed = self.params.strong_quorum - 1
        for sender in range(needed):
            inst.ia.log.corrupt_insert(
                (inst.ia.READY, general, value), sender, now
            )
        node.trace("planted_fake_ready", general=general, value=value)

    def plant_stale_anchor(self, node: ProtocolNode, general: int, value: Value) -> None:
        """Give the node a garbage anchor mid-"agreement" that never was."""
        inst = node.instance(general)
        now = node.local_now()
        inst.tau_g = now - self.rng.uniform(0, self.params.delta_agr)
        inst.accepted_value = value
        inst.mb.set_anchor(inst.tau_g)
        node.trace("planted_stale_anchor", general=general, value=value)

    def plant_poisoned_last_gm(self, node: ProtocolNode, general: int, value: Value) -> None:
        """Plant a future ``last(G, m)`` stamp that would block Block K.

        Cleanup must clear it (future stamps are "clearly wrong") or the node
        could refuse a correct General forever -- a liveness hazard.
        """
        inst = node.instance(general)
        now = node.local_now()
        inst.ia._last_gm(value).assign(now, now + self.params.delta_stb)
        node.trace("planted_poisoned_last_gm", general=general, value=value)

    # ------------------------------------------------------------------
    # In-flight garbage
    # ------------------------------------------------------------------
    def inject_garbage_traffic(
        self, net: Network, count: int, max_delay: float
    ) -> None:
        """Put ``count`` forged messages on the wire with random delays."""
        node_ids = net.node_ids
        for _ in range(count):
            general = self.rng.choice(self.generals)
            value = self.rng.choice(self.value_pool)
            origin = self.rng.choice(node_ids)
            k = self.rng.randint(1, self.params.f + 1)
            factories = [
                lambda: InitiatorMsg(general, value),
                lambda: SupportMsg(general, value),
                lambda: ApproveMsg(general, value),
                lambda: ReadyMsg(general, value),
                lambda: MBInitMsg(general, origin, value, k),
                lambda: MBEchoMsg(general, origin, value, k),
                lambda: MBInitPrimeMsg(general, origin, value, k),
                lambda: MBEchoPrimeMsg(general, origin, value, k),
            ]
            payload = self.rng.choice(factories)()
            net.inject_spurious(
                claimed_sender=self.rng.choice(node_ids),
                receiver=self.rng.choice(node_ids),
                payload=payload,
                delay=self.rng.uniform(0.0, max_delay),
            )

    # ------------------------------------------------------------------
    # Full chaos preset
    # ------------------------------------------------------------------
    def havoc(
        self,
        nodes: Sequence[ProtocolNode],
        net: Network,
        garbage_messages: int = 200,
    ) -> None:
        """Random corruption of every node plus targeted near-misses."""
        self.corrupt_nodes(nodes)
        for node in nodes:
            general = self.rng.choice(self.generals)
            value = self.rng.choice(self.value_pool)
            choice = self.rng.randint(0, 3)
            if choice == 0:
                self.plant_fake_ready_wave(node, general, value)
            elif choice == 1:
                self.plant_stale_anchor(node, general, value)
            elif choice == 2:
                self.plant_poisoned_last_gm(node, general, value)
            # choice == 3: random corruption only.
        self.inject_garbage_traffic(
            net, garbage_messages, max_delay=2.0 * self.params.d
        )


__all__ = [
    "TransientFaultInjector",
    "crash_in_process",
    "restart_in_process",
    "wipe_protocol_state",
]
