"""Adversaries only the tests cast: two Byzantine strategies and two
delivery policies that no experiment, suite preset or CLI command uses.

They keep the ``Strategy`` and ``DeliveryPolicy`` shapes of
:mod:`repro.faults.byzantine` and :mod:`repro.net.delivery`, so a test
plugs them in exactly as it would a product one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
from repro.faults.byzantine import ByzantineNode
from repro.net.delivery import DeliveryDecision
from repro.net.network import Envelope
from repro.sim.rand import RandomSource


class NoiseStrategy:
    """Floods random protocol messages at a fixed local-time interval."""

    def __init__(
        self,
        rng: RandomSource,
        value_pool: Sequence[Value],
        generals: Sequence[int],
        interval_local: float,
    ) -> None:
        self.rng = rng
        self.value_pool = list(value_pool)
        self.generals = list(generals)
        self.interval_local = interval_local

    def install(self, node: ByzantineNode) -> None:
        node.every_local(self.interval_local, lambda: self._spam(node), tag="byz_noise")

    def _spam(self, node: ByzantineNode) -> None:
        general = self.rng.choice(self.generals)
        value = self.rng.choice(self.value_pool)
        origin = self.rng.randint(0, node.params.n - 1)
        k = self.rng.randint(1, node.params.f + 1)
        factories = [
            lambda: SupportMsg(general, value),
            lambda: ApproveMsg(general, value),
            lambda: ReadyMsg(general, value),
            lambda: InitiatorMsg(node.node_id, value),
            lambda: MBInitMsg(general, node.node_id, value, k),
            lambda: MBEchoMsg(general, origin, value, k),
            lambda: MBInitPrimeMsg(general, origin, value, k),
            lambda: MBEchoPrimeMsg(general, origin, value, k),
        ]
        payload = self.rng.choice(factories)()
        receivers = self.rng.sample(
            node.net.node_ids, self.rng.randint(1, len(node.net.node_ids))
        )
        node.send_to_all(receivers, payload)

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        pass


@dataclass
class ReplayStrategy:
    """Records every protocol message it receives, then replays all of them.

    Transient faults aside, replay is the adversary's main tool against the
    *Uniqueness* and *Separation* properties (IA-4, Timeliness-4): stale
    waves must never re-trigger acceptance.  The decay rules (message age
    ``Delta_rmv``, ``last(G, m)`` horizons) are exactly what defeats this --
    the tests assert no second decision materializes.
    """

    delay_local: float
    bursts: int = 3
    burst_gap_local: float = 0.0

    def __post_init__(self) -> None:
        self._recorded: list[object] = []

    def install(self, node: ByzantineNode) -> None:
        gap = self.burst_gap_local or 2.0 * node.params.d
        for burst in range(self.bursts):
            node.after_local(
                self.delay_local + burst * gap,
                lambda: self._replay(node),
                tag="byz_replay",
            )

    def _replay(self, node: ByzantineNode) -> None:
        node.trace("byz_replay_burst", count=len(self._recorded))
        for payload in self._recorded:
            node.broadcast(payload)

    def on_message(self, node: ByzantineNode, envelope: Envelope) -> None:
        if envelope.sender == node.node_id:
            return
        self._recorded.append(envelope.payload)


class AdversarialDelay:
    """Maximizes arrival-time skew between receivers, within the legal bound.

    Receivers in ``fast_set`` get messages at ``delta_min``; everyone else at
    ``delta_max``.  This is the pattern the paper's trickiest lemmas (window
    boundaries in Blocks L/M) are exposed to: some correct nodes see a quorum
    "just in time" while others see it as late as legally possible.
    """

    def __init__(
        self, delta_min: float, delta_max: float, fast_set: frozenset[int]
    ) -> None:
        if not (0 <= delta_min <= delta_max):
            raise ValueError(f"invalid range [{delta_min!r}, {delta_max!r}]")
        self.delta_min = delta_min
        self.delta_max = delta_max
        self.fast_set = fast_set

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        if receiver in self.fast_set:
            return DeliveryDecision(self.delta_min)
        return DeliveryDecision(self.delta_max)

    def min_delay(self) -> float:
        return self.delta_min


class IncoherentDelivery:
    """Transient-period network behaviour: loss and unbounded delay.

    Used *before* the scenario declares coherence.  Each copy is independently
    dropped with ``drop_probability``, otherwise delayed uniformly up to
    ``max_delay`` (which may far exceed the model's ``delta``).
    """

    def __init__(self, drop_probability: float, max_delay: float) -> None:
        if not (0.0 <= drop_probability <= 1.0):
            raise ValueError(f"invalid probability {drop_probability!r}")
        if max_delay < 0:
            raise ValueError(f"negative max delay {max_delay!r}")
        self.drop_probability = drop_probability
        self.max_delay = max_delay

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        if rng.chance(self.drop_probability):
            return DeliveryDecision.dropped()
        return DeliveryDecision(rng.uniform(0.0, self.max_delay))

    def min_delay(self) -> float:
        # Delivered copies may arrive instantly -- the transient-period
        # network offers no floor at all.
        return 0.0
