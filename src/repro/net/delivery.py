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
    "BurstyDelay",
    "DeliveryDecision",
    "DeliveryPolicy",
    "FixedDelay",
    "LinkPartitionPolicy",
    "UniformDelay",
    "wall_clock_default",
]
