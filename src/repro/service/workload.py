"""Open-loop workload generator for the replicated-log service.

Open-loop means the arrival process does not slow down when the service
does: command ``i`` *arrives* at its scheduled instant (fixed ``1/rate``
spacing, or exponential gaps for a Poisson process) regardless of how the
system is keeping up.  Each command's latency stamp is the **theoretical**
arrival instant, so when back-pressure makes the generator fall behind, the
waiting shows up as measured queueing delay -- the honest methodology for
"millions of users" claims, where closed-loop generators famously flatter
the tail.

Both backends take the schedule from :func:`arrival_offsets`: the
generator awaits any async ``submit(command, arrival)`` callable
(:meth:`~repro.service.coordinator.LogCoordinator.submit` in-process), and
the socket backend's parent ships the same arrivals down the primary's
control pipe one wake ahead, for a :class:`StampRelease` to submit at
their stamps.  No command reaches a coordinator before its instant.
"""

from __future__ import annotations

import random
import time
from collections import deque
from itertools import accumulate, islice
from typing import Awaitable, Callable, Iterator

SubmitFn = Callable[[object, float], Awaitable[None]]


def arrival_offsets(
    rate: float, total: int, seed: int = 0, poisson: bool = True
) -> Iterator[float]:
    """Each command's arrival, seconds from the start, drawn as consumed: 0,
    then the running sum of ``Random(seed).expovariate(rate)`` (or
    ``1 / rate``) gaps."""
    rng = random.Random(seed)
    gaps = (
        rng.expovariate(rate) if poisson else 1.0 / rate
        for _ in range(total - 1)
    )
    return islice(accumulate(gaps, initial=0.0), total)


class OpenLoopWorkload:
    """Generates ``total`` commands at ``rate`` per second."""

    def __init__(
        self,
        submit: SubmitFn,
        rate: float,
        total: int,
        seed: int = 0,
        poisson: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        self.submit = submit
        self.total = total
        self._offsets = arrival_offsets(rate, total, seed, poisson)
        self.clock = clock
        self.issued = 0
        #: Worst lateness of an actual submit behind its scheduled arrival
        #: (seconds) -- how far back-pressure pushed the generator.
        self.max_lag_s = 0.0

    async def run(self) -> None:
        """Issue every command; returns once the last submit is accepted."""
        import asyncio

        clock = self.clock
        submit = self.submit
        start = clock()
        for i, offset in enumerate(self._offsets):
            arrival = start + offset
            ahead = arrival - clock()
            if ahead > 0.0:
                await asyncio.sleep(ahead)
            else:
                lag = -ahead
                if lag > self.max_lag_s:
                    self.max_lag_s = lag
            await submit(f"cmd{i}", arrival)
            self.issued += 1


class StampRelease:
    """Holds commands shipped ahead of their arrival stamps, in the (stamp)
    order shipped, and hands each to ``submit(command, stamp)`` once
    ``clock()`` reaches its stamp: one loop timer waits for the head, and a
    stamp already past goes in at once.  Clearing ``held`` drops the rest."""

    def __init__(self, loop, submit, clock=time.time) -> None:
        self.loop, self.submit, self.clock = loop, submit, clock
        self.held: deque[tuple[object, float]] = deque()
        self.timer = None

    def ship(self, arrivals) -> None:
        self.held.extend(arrivals)
        if self.timer is None:
            self.release()

    def release(self) -> None:
        self.timer = None
        held, now = self.held, self.clock()
        while held and held[0][1] <= now:
            self.submit(*held.popleft())
        if held:
            self.timer = self.loop.call_later(held[0][1] - now, self.release)


__all__ = ["OpenLoopWorkload", "StampRelease", "SubmitFn", "arrival_offsets"]
