"""SimHost: the discrete-event backend of the sans-I/O host API.

A thin adapter gluing one node's view of the simulator -- its
:class:`~repro.sim.clock.DriftClock`, the shared :class:`~repro.net.network.
Network`, the shared :class:`~repro.sim.trace.Tracer`, and the event kernel's
timers -- behind :class:`repro.runtime.api.ProtocolHost`.  It is deliberately
*only* glue: every call lands on the exact same kernel primitive the
pre-refactor node used, in the same order, so runs are bit-identical at fixed
seeds (the golden-row and trace-digest suites enforce this).

:class:`NodeContext` lives here too: it is the sim-specific bundle scenario
builders hand to nodes, and ``Node`` lazily wraps it in a :class:`SimHost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.network import Network
from repro.runtime.api import INERT_TIMER, Action, TimerHandle, TimerRegistry
from repro.sim.clock import ClockConfig, DriftClock
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer


@dataclass
class NodeContext:
    """Everything a node needs to exist in a simulated scenario."""

    sim: Simulator
    net: Network
    tracer: Tracer
    clock_config: ClockConfig = ClockConfig()
    rand: Optional[RandomSource] = None


class SimHost:
    """One node's :class:`~repro.runtime.api.ProtocolHost` over the simulator."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        net: Network,
        tracer: Tracer,
        clock_config: ClockConfig = ClockConfig(),
        rand: Optional[RandomSource] = None,
        params=None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.net = net
        self.tracer = tracer
        self.clock = DriftClock(sim, clock_config)
        self.rand = rand if rand is not None else RandomSource(0, f"host/{node_id}")
        self.params = params
        self._registry = TimerRegistry()
        self._closed = False
        # Hot-path binding: ``now`` is the single most-called host method
        # (every arrival and timer reads the clock), so it resolves straight
        # to the clock's inlined affine map.
        self.now = self.clock.local_now

    @classmethod
    def from_context(cls, node_id: int, ctx: NodeContext) -> "SimHost":
        return cls(
            node_id, ctx.sim, ctx.net, ctx.tracer, ctx.clock_config, rand=ctx.rand
        )

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:  # shadowed by the instance binding above
        return self.clock.local_now()

    def real_now(self) -> float:
        return self.sim.now

    def real_at_local(self, local_time: float) -> float:
        return self.clock.real_at_local(local_time)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule_after(
        self, delay_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        """Schedule on the kernel, translating local delay through the clock."""
        if self._closed:
            return INERT_TIMER
        handle = self.sim.schedule_at(
            self.sim.now + self.clock.real_delay_for_local(delay_local), action, tag
        )
        self._registry.track(handle)
        return handle

    def schedule_every(
        self, interval_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        """:meth:`schedule_after`, re-armed by the kernel after each run."""
        if self._closed:
            return INERT_TIMER
        period = self.clock.real_delay_for_local(interval_local)
        handle = self.sim.schedule_at(self.sim.now + period, action, tag)
        handle.period = period
        self._registry.track(handle)
        return handle

    def schedule_at(
        self, when_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        return self.schedule_after(max(0.0, when_local - self.now()), action, tag)

    def live_timer_count(self) -> int:
        return self._registry.live_count()

    def cancel_all_timers(self) -> None:
        self._registry.cancel_all()

    def close(self) -> None:
        """Cancel every pending timer and refuse new ones (teardown).

        Never called by scenario builders (the kernel simply stops running),
        so golden-row runs are untouched; it exists so the sim backend obeys
        the same close semantics the conformance contract demands of the
        wall-clock backends.
        """
        self._closed = True
        self._registry.cancel_all()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def attach(self, receiver: Callable) -> None:
        """Register this node's message handler with the network."""
        self.net.register(self.node_id, receiver)

    def send(self, receiver: int, payload: object) -> None:
        self.net.send(self.node_id, receiver, payload)

    def broadcast(self, payload: object) -> None:
        self.net.broadcast(self.node_id, payload)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self.tracer.enabled

    def trace(self, kind: str, **detail: object) -> None:
        """Record a trace event with both clocks (count-only when disabled)."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, self.node_id, kind, local_time=self.now(), **detail
            )
        else:
            tracer.bump(kind)


__all__ = ["NodeContext", "SimHost"]
