"""Delivery policies: who gets which message, when.

A policy maps (sender, receiver, payload) to a :class:`DeliveryDecision`.
Policies are where the *adversary controls the network* within the model's
bounds: any per-message delay in ``[delta_min, delta]`` is legal for a
correct network, and the paper's proofs must hold for every such choice, so
experiments sweep both benign (uniform) and adversarial (skew-maximizing)
policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.sim.rand import RandomSource


@dataclass(slots=True)
class DeliveryDecision:
    """Outcome for a single (message, receiver) pair.

    ``delay`` is the real-time transit delay; ``drop`` wins over delay.
    ``partition`` marks a drop as partition-suppressed (a severed link)
    rather than an ordinary lossy-policy drop -- the network keeps separate
    counters so scenario reports can attribute loss to its cause.  One is
    built per copy, so it is not frozen; the fabric never mutates it.
    """

    delay: float = 0.0
    drop: bool = False
    partition: bool = False

    @staticmethod
    def dropped(partition: bool = False) -> "DeliveryDecision":
        return DeliveryDecision(0.0, True, partition)


class DeliveryPolicy(Protocol):
    """Strategy interface consulted once per (message, receiver)."""

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        """Return the delivery decision for one copy of a message."""
        ...

    def min_delay(self) -> float:
        """A lower bound on the transit delay of any *delivered* copy.

        :class:`~repro.runtime.wire.WireTransport` uses this as each held
        copy's release floor: a copy coalesced into an earlier datagram
        never leaves before ``send instant + min_delay()``.  The bound must
        hold for every copy the policy ever delivers (dropped copies are
        exempt -- they never arrive); ``0.0`` is always sound but lets the
        wire release a copy as early as its coalescing slack allows.
        """
        ...


class FixedDelay:
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.delay = delay

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        return DeliveryDecision(self.delay)

    def min_delay(self) -> float:
        return self.delay


class UniformDelay:
    """Delay drawn uniformly from ``[low, high]``, independently per copy."""

    def __init__(self, low: float, high: float) -> None:
        if not (0 <= low <= high):
            raise ValueError(f"invalid delay range [{low!r}, {high!r}]")
        self.low = low
        self.high = high

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        return DeliveryDecision(rng.uniform(self.low, self.high))

    def min_delay(self) -> float:
        return self.low


def wall_clock_default(delta: float) -> UniformDelay:
    """The wall-clock backends' default delivery policy.

    Leaves headroom under ``delta``: the loop, the kernel and the scheduler
    add their own latency on top of the drawn delay, and the total must
    stay below ``d``.
    """
    return UniformDelay(0.05 * delta, 0.5 * delta)


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


class BurstyDelay:
    """Alternates between a fast regime and a congested regime.

    Real networks are rarely uniformly slow; they oscillate.  The policy
    switches regimes every ``period`` of real time (the caller supplies a
    clock via ``now_fn``, normally ``sim.now``-bound), staying within the
    legal ``[0, delta]`` envelope in both regimes so the model bound holds.
    """

    def __init__(
        self,
        now_fn,
        period: float,
        fast_max: float,
        slow_min: float,
        slow_max: float,
    ) -> None:
        if not (0 <= fast_max and 0 <= slow_min <= slow_max):
            raise ValueError("invalid delay regimes")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.now_fn = now_fn
        self.period = period
        self.fast_max = fast_max
        self.slow_min = slow_min
        self.slow_max = slow_max

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        phase = int(self.now_fn() / self.period) % 2
        if phase == 0:
            return DeliveryDecision(rng.uniform(0.0, self.fast_max))
        return DeliveryDecision(rng.uniform(self.slow_min, self.slow_max))

    def min_delay(self) -> float:
        # The fast regime's floor is zero regardless of the slow regime.
        return 0.0


class LinkPartitionPolicy:
    """Drops traffic across a node-set cut while active, else delegates.

    Models the *faulty-network* period's partitions: only legal before
    coherence (a correct network never partitions in this model), so
    scenarios must deactivate it (or heal the cut) before declaring the
    system coherent.
    """

    def __init__(self, inner: "DeliveryPolicy", island: frozenset[int]) -> None:
        self.inner = inner
        self.island = island
        self.active = True

    def heal(self) -> None:
        """Remove the cut (traffic resumes under the inner policy)."""
        self.active = False

    def decide(
        self, sender: int, receiver: int, payload: object, rng: RandomSource
    ) -> DeliveryDecision:
        if self.active and ((sender in self.island) != (receiver in self.island)):
            return DeliveryDecision.dropped(partition=True)
        return self.inner.decide(sender, receiver, payload, rng)

    def min_delay(self) -> float:
        # Cross-cut copies are dropped, never delayed, so the wrapper
        # inherits the inner policy's delivered-copy bound unchanged.
        return self.inner.min_delay()


__all__ = [
    "AdversarialDelay",
    "BurstyDelay",
    "DeliveryDecision",
    "DeliveryPolicy",
    "FixedDelay",
    "IncoherentDelivery",
    "LinkPartitionPolicy",
    "UniformDelay",
    "wall_clock_default",
]
