"""Open-loop workload generator for the replicated-log service.

Open-loop means the arrival process does not slow down when the service
does: command ``i`` *arrives* at its scheduled instant (fixed ``1/rate``
spacing, or exponential gaps for a Poisson process) regardless of how the
system is keeping up.  Each command's latency stamp is the **theoretical**
arrival instant, so when back-pressure makes the generator fall behind, the
waiting shows up as measured queueing delay -- the honest methodology for
"millions of users" claims, where closed-loop generators famously flatter
the tail.

The generator drives any async ``submit(command, arrival)`` callable
(:meth:`~repro.service.coordinator.LogCoordinator.submit` locally, or a
pipe-writer for the socket backend's parent-side driver).
"""

from __future__ import annotations

import random
import time
from typing import Awaitable, Callable, Optional

SubmitFn = Callable[[object, float], Awaitable[None]]


class OpenLoopWorkload:
    """Generates ``total`` commands at ``rate`` per second."""

    def __init__(
        self,
        submit: SubmitFn,
        rate: float,
        total: int,
        seed: int = 0,
        poisson: bool = True,
        prefix: str = "cmd",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if total < 1:
            raise ValueError(f"total must be >= 1, got {total}")
        self.submit = submit
        self.rate = rate
        self.total = total
        self.seed = seed
        self.poisson = poisson
        self.prefix = prefix
        self.clock = clock
        self.issued = 0
        self.elapsed_s = 0.0
        #: Worst lateness of an actual submit behind its scheduled arrival
        #: (seconds) -- how far back-pressure pushed the generator.
        self.max_lag_s = 0.0

    async def run(self) -> None:
        """Issue every command; returns once the last submit is accepted."""
        import asyncio

        rng = random.Random(self.seed)
        clock = self.clock
        submit = self.submit
        rate = self.rate
        poisson = self.poisson
        prefix = self.prefix
        start = clock()
        offset = 0.0  # scheduled arrival, seconds from start
        for i in range(self.total):
            if i:
                offset += rng.expovariate(rate) if poisson else 1.0 / rate
            arrival = start + offset
            ahead = arrival - clock()
            if ahead > 0.0:
                await asyncio.sleep(ahead)
            else:
                lag = -ahead
                if lag > self.max_lag_s:
                    self.max_lag_s = lag
            await submit(f"{prefix}{i}", arrival)
            self.issued += 1
        self.elapsed_s = clock() - start


__all__ = ["OpenLoopWorkload", "SubmitFn"]
