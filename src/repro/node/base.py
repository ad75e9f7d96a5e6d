"""Base class for protocol nodes, written against the sans-I/O host API.

Design rules enforced here (mirroring the paper's model):

* a node reads time *only* through its host's local clock (``local_now``),
  never any global real time;
* a node interacts with other nodes *only* via the host's transport;
* local timers are scheduled in local-time units; the host translates them
  to whatever real axis it owns (simulated time, the asyncio loop, ...);
* a node can be *stunned* (crashed) and later resumed, and its timers can be
  wiped by a transient fault.

A node is itself a :class:`~repro.runtime.api.ProtocolHost`: it forwards the
host surface to its backend while layering the crash semantics on top (a
crashed node neither sends nor fires timers).  The protocol primitives in
``repro.core`` therefore receive the *node* as their host.

Construction accepts either a ready-made host (``SimHost``, ``AsyncioHost``,
any conforming object) or the legacy sim-specific
:class:`~repro.runtime.sim_host.NodeContext`, which is wrapped in a
``SimHost`` on the fly -- existing scenario builders keep working unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.api import Delivery, ProtocolHost, TimerHandle


class Node:
    """A process with a local clock, an inbox, and local timers."""

    def __init__(self, node_id: int, ctx) -> None:
        if not hasattr(ctx, "schedule_after"):
            # A legacy NodeContext bundle: wrap it in the sim backend.
            from repro.runtime.sim_host import SimHost

            ctx = SimHost.from_context(node_id, ctx)
        self.node_id = node_id
        self.host: ProtocolHost = ctx
        # Back-compat surface for sim-backed call sites (baselines, fault
        # scripts, property checkers); None under non-sim backends.
        self.sim = getattr(ctx, "sim", None)
        self.net = getattr(ctx, "net", None)
        self.clock = getattr(ctx, "clock", None)
        self.tracer = ctx.tracer
        self.rand = getattr(ctx, "rand", None)
        self._crashed = False
        # Hot-path bindings: clock reads resolve straight to the host's
        # (itself usually a direct binding to the clock's affine map).
        self.local_now = ctx.now
        self.now = ctx.now
        ctx.attach(self._receive)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def local_now(self) -> float:  # shadowed by the instance binding above
        """Current local-clock reading."""
        return self.host.now()

    now = local_now  # ProtocolHost spelling (also instance-bound in __init__)

    def real_now(self) -> float:
        """Observer-side real time (results bookkeeping only)."""
        return self.host.real_now()

    def real_at_local(self, local_time: float) -> float:
        """Real time at which this node's local reading equals the input."""
        return self.host.real_at_local(local_time)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, receiver: int, payload: object) -> None:
        """Point-to-point send (ignored while crashed)."""
        if self._crashed:
            return
        self.host.send(receiver, payload)

    def broadcast(self, payload: object) -> None:
        """Send to every node, including self (no broadcast medium)."""
        if self._crashed:
            return
        self.host.broadcast(payload)

    def _receive(self, envelope: Delivery) -> None:
        if self._crashed:
            return
        self.on_message(envelope)

    def on_message(self, envelope: Delivery) -> None:
        """Handle a delivered message.  Subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Local timers
    # ------------------------------------------------------------------
    def after_local(
        self, delay_local: float, action: Callable[[], None], tag: str = ""
    ) -> TimerHandle:
        """Run ``action`` after a local-time delay measured on *this* clock."""

        def guarded() -> None:
            if not self._crashed:
                action()

        return self.host.schedule_after(
            delay_local, guarded, tag or f"timer:{self.node_id}"
        )

    # ProtocolHost spelling; identical semantics (crash-guarded).
    schedule_after = after_local

    def every_local(
        self, interval_local: float, action: Callable[[], None], tag: str = ""
    ) -> None:
        """Run ``action`` periodically, every local interval, forever."""
        if interval_local <= 0:
            raise ValueError(f"interval must be positive, got {interval_local!r}")
        tag = tag or f"timer:{self.node_id}"
        # A tick due while crashed ends the chain (a restart arms a new one);
        # a host that re-arms one handle per chain saves each tick a timer.
        schedule_every = getattr(self.host, "schedule_every", None)
        if schedule_every is not None:
            def tick() -> None:
                if self._crashed:
                    handle.cancel()
                    return
                action()

            handle = schedule_every(interval_local, tick, tag)
            return
        schedule_after = self.host.schedule_after

        def rearming_tick() -> None:
            if self._crashed:
                return
            action()
            schedule_after(interval_local, rearming_tick, tag)

        schedule_after(interval_local, rearming_tick, tag)

    def cancel_timers(self) -> None:
        """Cancel all pending timers (used by crash / corruption)."""
        self.host.cancel_all_timers()

    def live_timer_count(self) -> int:
        """Still-pending timers on this node's host (hygiene introspection)."""
        return self.host.live_timer_count()

    # ------------------------------------------------------------------
    # Crash control
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """True while the node is stopped."""
        return self._crashed

    def crash(self) -> None:
        """Stop participating entirely (messages and timers ignored)."""
        self._crashed = True

    def resume(self) -> None:
        """Resume after a crash.  State is whatever it was -- deliberately.

        A resumed node is *non-faulty* but not yet *correct* in the paper's
        terms (Definition 4): its memory may be stale and it becomes correct
        only after ``Delta_node`` of continuous good behaviour.
        """
        self._crashed = False

    # ------------------------------------------------------------------
    # Tracing helpers
    # ------------------------------------------------------------------
    def trace(self, kind: str, **detail: object) -> None:
        """Record a trace event attributed to this node, with both clocks."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.host.real_now(),
                self.node_id,
                kind,
                local_time=self.host.now(),
                **detail,
            )
        else:
            # Count-only fast path: skip the clock reads and event build.
            tracer.bump(kind)


__all__ = ["Node"]
