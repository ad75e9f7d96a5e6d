"""Byzantine node strategies.

A :class:`ByzantineNode` deviates arbitrarily from the protocol: the
strategy object decides what to send, to whom, and when.  The network still
authenticates the sender identity (Definition 2), so a Byzantine node cannot
impersonate others -- but it can equivocate (different messages to different
receivers), stay silent, flood garbage, or time its messages adversarially.

The strategies here are the attack repertoire the experiments sweep:

=======================================  =====================================
Strategy                                 Targets
=======================================  =====================================
:class:`CrashStrategy`                   liveness with silent faults (E4)
:class:`EquivocatingGeneralStrategy`     Agreement under a two-faced General,
                                         incl. split support/approve waves (E2)
:class:`StaggeredGeneralStrategy`        the "sends its values at completely
                                         different times" attack (Section 4)
:class:`SelectiveGeneralStrategy`        partial initiation -- some correct
                                         nodes never see the General (E2)
:class:`TwoFacedParticipantStrategy`     quorum-splitting by non-General
                                         Byzantine participants
:class:`MirrorParticipantStrategy`       Byzantine nodes that *help* whatever
                                         wave exists (worst case for
                                         Uniqueness windows)
:class:`ScriptedStrategy`                exact message schedules for
                                         lemma-edge unit tests
=======================================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

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
from repro.net.network import Envelope
from repro.node.base import Node


class Strategy(Protocol):
    """Behaviour plugged into a :class:`ByzantineNode`."""

    def install(self, node: "ByzantineNode") -> None:
        """Schedule the strategy's activity on the node."""
        ...

    def on_message(self, node: "ByzantineNode", envelope: Envelope) -> None:
        """React to a delivered message (may be a no-op)."""
        ...


class ByzantineNode(Node):
    """A node whose behaviour is entirely strategy-driven."""

    def __init__(
        self,
        node_id: int,
        ctx,  # a ProtocolHost, or a sim NodeContext (wrapped by Node)
        params: ProtocolParams,
        strategy: Strategy,
    ) -> None:
        super().__init__(node_id, ctx)
        self.params = params
        self.strategy = strategy
        strategy.install(self)

    def on_message(self, envelope: Envelope) -> None:
        self.strategy.on_message(self, envelope)

    # Convenience senders -------------------------------------------------
    def send_to_all(self, receivers: Iterable[int], payload: object) -> None:
        """Send the same payload to a chosen subset (equivocation tool)."""
        for receiver in receivers:
            self.send(receiver, payload)


# ---------------------------------------------------------------------------
# Baseline behaviours
# ---------------------------------------------------------------------------
class CrashStrategy:
    """Sends nothing, ever (a silent/crashed Byzantine node)."""

    def install(self, node: ByzantineNode) -> None:
        node.trace("byz_crash_installed")

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


# ---------------------------------------------------------------------------
# Byzantine Generals
# ---------------------------------------------------------------------------
@dataclass
class EquivocatingGeneralStrategy:
    """Sends value ``value_a`` to one camp and ``value_b`` to the other,
    then feeds each camp supporting traffic for *its* value.

    This is the canonical Agreement attack: the General tries to assemble
    two disjoint support waves.  With ``n > 3f`` the strong quorum
    (``n - f``) makes two simultaneous approve waves impossible -- the
    attack must fail, and E2 verifies that it does on every seed.
    """

    value_a: Value
    value_b: Value
    camp_a: tuple[int, ...]
    camp_b: tuple[int, ...]
    start_delay_local: float = 0.0

    def install(self, node: ByzantineNode) -> None:
        def attack() -> None:
            node.trace("byz_equivocate", a=self.value_a, b=self.value_b)
            node.send_to_all(self.camp_a, InitiatorMsg(node.node_id, self.value_a))
            node.send_to_all(self.camp_b, InitiatorMsg(node.node_id, self.value_b))
            # Keep feeding both camps so neither wave dies for lack of the
            # Byzantine node's own quorum contribution.
            d = node.params.d
            for i in range(1, 6):
                node.after_local(
                    i * d,
                    lambda: (
                        node.send_to_all(self.camp_a, SupportMsg(node.node_id, self.value_a)),
                        node.send_to_all(self.camp_b, SupportMsg(node.node_id, self.value_b)),
                        node.send_to_all(self.camp_a, ApproveMsg(node.node_id, self.value_a)),
                        node.send_to_all(self.camp_b, ApproveMsg(node.node_id, self.value_b)),
                        node.send_to_all(self.camp_a, ReadyMsg(node.node_id, self.value_a)),
                        node.send_to_all(self.camp_b, ReadyMsg(node.node_id, self.value_b)),
                    ),
                    tag="byz_feed",
                )

        node.after_local(self.start_delay_local, attack, tag="byz_equiv_start")

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


@dataclass
class StaggeredGeneralStrategy:
    """Sends the *same* value but at wildly different times per receiver.

    Exercises the path the paper singles out: "a faulty General has more
    power in trying to fool the correct nodes by sending its values at
    completely different times to whichever nodes it chooses."  Correct
    outcomes here are all-decide-same or all-abort -- never a split.
    """

    value: Value
    spread_local: float = 0.0
    receivers: Optional[tuple[int, ...]] = None

    def install(self, node: ByzantineNode) -> None:
        def start() -> None:
            # Deferred: at install time the cluster may still be under
            # construction and net.node_ids incomplete.
            receivers = (
                list(self.receivers)
                if self.receivers is not None
                else node.net.node_ids
            )
            gap = self.spread_local / max(1, len(receivers) - 1) if receivers else 0.0
            for idx, receiver in enumerate(receivers):
                node.after_local(
                    idx * gap,
                    lambda r=receiver: node.send(
                        r, InitiatorMsg(node.node_id, self.value)
                    ),
                    tag="byz_stagger",
                )

        node.after_local(0.0, start, tag="byz_stagger_start")

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


@dataclass
class SelectiveGeneralStrategy:
    """Sends the initiation to only a subset of nodes, then goes silent.

    Some correct nodes may return BOTTOM while others never notice the
    initiation -- both legal; what must never happen is two correct nodes
    *deciding* differently, and if any correct node decides, all must.
    """

    value: Value
    receivers: tuple[int, ...]

    def install(self, node: ByzantineNode) -> None:
        def attack() -> None:
            for receiver in self.receivers:
                node.send(receiver, InitiatorMsg(node.node_id, self.value))

        node.after_local(0.0, attack, tag="byz_selective")

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


# ---------------------------------------------------------------------------
# Byzantine participants (non-General)
# ---------------------------------------------------------------------------
@dataclass
class TwoFacedParticipantStrategy:
    """Relays each wave it sees -- but only to half the nodes.

    For every support/approve/ready/echo the node receives, it forwards its
    own copy to ``camp`` only, trying to lift one camp over quorum
    thresholds while starving the other.
    """

    camp: tuple[int, ...]

    def install(self, node: ByzantineNode) -> None:
        node.trace("byz_twofaced_installed")

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        if envelope.sender == node.node_id:
            return
        msg = envelope.payload
        mirrored: Optional[object] = None
        if isinstance(msg, SupportMsg):
            mirrored = SupportMsg(msg.general, msg.value)
        elif isinstance(msg, ApproveMsg):
            mirrored = ApproveMsg(msg.general, msg.value)
        elif isinstance(msg, ReadyMsg):
            mirrored = ReadyMsg(msg.general, msg.value)
        elif isinstance(msg, MBInitMsg):
            mirrored = MBEchoMsg(msg.general, msg.origin, msg.value, msg.k)
        elif isinstance(msg, MBEchoMsg):
            mirrored = MBEchoMsg(msg.general, msg.origin, msg.value, msg.k)
        elif isinstance(msg, MBInitPrimeMsg):
            mirrored = MBInitPrimeMsg(msg.general, msg.origin, msg.value, msg.k)
        elif isinstance(msg, MBEchoPrimeMsg):
            mirrored = MBEchoPrimeMsg(msg.general, msg.origin, msg.value, msg.k)
        if mirrored is not None:
            node.send_to_all(self.camp, mirrored)


class MirrorParticipantStrategy:
    """Echoes support for *every* wave to *everyone*, immediately.

    The most helpful-looking Byzantine node: it amplifies whatever is in the
    air, which is the worst case for the Uniqueness windows (IA-4) because it
    keeps stale waves alive as long as legally possible.
    """

    def install(self, node: ByzantineNode) -> None:
        node.trace("byz_mirror_installed")

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        if envelope.sender == node.node_id:
            # Reacting to one's own broadcasts only floods the adversary's
            # own outbox (and the simulation); a rational adversary skips it.
            return
        msg = envelope.payload
        if isinstance(msg, InitiatorMsg):
            node.broadcast(SupportMsg(msg.general, msg.value))
        elif isinstance(msg, SupportMsg):
            node.broadcast(SupportMsg(msg.general, msg.value))
            node.broadcast(ApproveMsg(msg.general, msg.value))
        elif isinstance(msg, ApproveMsg):
            node.broadcast(ApproveMsg(msg.general, msg.value))
            node.broadcast(ReadyMsg(msg.general, msg.value))
        elif isinstance(msg, ReadyMsg):
            node.broadcast(ReadyMsg(msg.general, msg.value))


@dataclass
class SplitWorldStrategy:
    """A coordinated split-world participant: full wave A to camp A, full
    wave B to camp B, on a repeating schedule.

    One Byzantine General running :class:`EquivocatingGeneralStrategy` plus
    ``f' - 1`` participants running this strategy is the textbook partition
    attack.  With ``n > 3f'`` it provably cannot split the correct nodes
    (E2/E6 within-bound arms); with ``n <= 3f'`` it splits them outright
    (E6 beyond-bound arm), which is what makes the resilience bound tight.
    """

    general: int
    value_a: Value
    value_b: Value
    camp_a: tuple[int, ...]
    camp_b: tuple[int, ...]
    rounds: int = 8

    def install(self, node: ByzantineNode) -> None:
        d = node.params.d
        for i in range(self.rounds):
            node.after_local(
                (i + 0.5) * d,
                lambda: self._wave(node),
                tag="byz_splitworld",
            )

    def _wave(self, node: ByzantineNode) -> None:
        for camp, value in ((self.camp_a, self.value_a), (self.camp_b, self.value_b)):
            node.send_to_all(camp, SupportMsg(self.general, value))
            node.send_to_all(camp, ApproveMsg(self.general, value))
            node.send_to_all(camp, ReadyMsg(self.general, value))

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


@dataclass
class ScriptedStrategy:
    """Plays back an exact schedule of (local_delay, receivers, payload).

    The unit tests use this to place adversarial messages exactly at window
    boundaries (e.g. a support arriving 4d + epsilon late).
    """

    script: tuple[tuple[float, tuple[int, ...], object], ...]

    def install(self, node: ByzantineNode) -> None:
        for delay, receivers, payload in self.script:
            node.after_local(
                delay,
                lambda r=receivers, p=payload: node.send_to_all(r, p),
                tag="byz_script",
            )

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


__all__ = [
    "ByzantineNode",
    "CrashStrategy",
    "EquivocatingGeneralStrategy",
    "MirrorParticipantStrategy",
    "ScriptedStrategy",
    "SelectiveGeneralStrategy",
    "SplitWorldStrategy",
    "StaggeredGeneralStrategy",
    "Strategy",
    "TwoFacedParticipantStrategy",
]
