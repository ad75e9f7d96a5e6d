"""The sans-I/O host API: what the protocol core needs from a runtime.

The paper specifies ss-Byz-Agree purely in terms of message arrivals, local
timers and deadlines -- nothing in the protocol text mentions an event loop,
a socket, or a discrete-event queue.  This module pins that boundary down as
a structural :class:`ProtocolHost` interface so the evaluators in
:mod:`repro.core` compile against *capabilities* (read the local clock,
schedule a cancelable timer, send/broadcast, draw randomness, trace) instead
of against the simulator.  Everything under ``repro/core/`` imports only
this module; concrete runtimes live next door:

* :class:`repro.runtime.sim_host.SimHost` -- a thin adapter over the
  discrete-event kernel (``repro.sim``), bit-identical to the pre-refactor
  wiring at fixed seeds;
* :class:`repro.runtime.aio.AsyncioHost` -- real coroutines and wall-clock
  timers on the ``asyncio`` loop, with an in-process transport;
* :class:`repro.runtime.socket_host.SocketHost` -- real UDP datagrams on
  localhost, one OS process per node, authenticated frames.

A new backend only has to satisfy this surface; the conformance suite in
``tests/test_runtime.py`` spells out the contract (monotonic ``now()``,
FIFO ordering of same-deadline timers, idempotent cancelation, refusal of
timers after ``close()``, ``live_timer_count()`` draining to zero,
exactly-once broadcast, trace attribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Sequence, TypeVar

if TYPE_CHECKING:  # structural typing only -- no runtime import of the sim
    from repro.core.params import ProtocolParams

T = TypeVar("T")

Action = Callable[[], None]


class TimerHandle(Protocol):
    """A cancelable reference to a scheduled timer."""

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        ...

    @property
    def alive(self) -> bool:
        """True while the timer is still pending (not fired, not canceled)."""
        ...


class RandomStream(Protocol):
    """Deterministic, splittable randomness (the shape of ``RandomSource``).

    The core only ever *consumes* draws (fault corruption takes a stream as
    an argument); hosts expose a per-node stream via :attr:`ProtocolHost.rand`
    so protocol extensions can randomize without importing a backend.
    """

    def split(self, name: str) -> "RandomStream": ...
    def uniform(self, low: float, high: float) -> float: ...
    def randint(self, low: int, high: int) -> int: ...
    def random(self) -> float: ...
    def chance(self, probability: float) -> bool: ...
    def choice(self, items: Sequence[T]) -> T: ...
    def sample(self, items: Sequence[T], k: int) -> list[T]: ...
    def shuffled(self, items: Sequence[T]) -> list[T]: ...
    def gauss(self, mu: float, sigma: float) -> float: ...


class TraceSink(Protocol):
    """Where trace events go (the shape of :class:`repro.sim.trace.Tracer`)."""

    enabled: bool

    def record(
        self,
        real_time: float,
        node: Optional[int],
        kind: str,
        local_time: Optional[float] = None,
        **detail: Any,
    ) -> None: ...

    def bump(self, kind: str) -> None: ...


class _AlwaysEnabled:
    """Stand-in tracer for hosts that expose none: guards stay truthy."""

    __slots__ = ()
    enabled = True


ALWAYS_ENABLED = _AlwaysEnabled()


class Delivery(Protocol):
    """A delivered message as the protocol sees it (authenticated sender)."""

    sender: int
    payload: object


@dataclass(slots=True)
class Envelope:
    """One message copy as its receiver sees it, built when it is delivered.

    Every fabric makes its envelopes at delivery.  On the sim kernel a copy
    in flight is only a slot in its wave's run
    (:meth:`~repro.sim.engine.Simulator.schedule_run`), with
    ``delivered_at`` the instant drawn at send; on the wall-clock carriers
    it is the receiver's clock reading as it delivers.
    """

    sender: int
    receiver: int
    payload: object
    sent_at: float
    delivered_at: float


class Transport(Protocol):
    """A message fabric a host sends through (sim network, asyncio router)."""

    def register(self, node_id: int, receiver: Callable[[Any], None]) -> None: ...
    def send(self, sender: int, receiver: int, payload: object) -> None: ...
    def broadcast(self, sender: int, payload: object) -> None: ...

    @property
    def node_ids(self) -> list[int]: ...


class ProtocolHost(Protocol):
    """Everything the protocol core is allowed to ask of its runtime.

    Time is *local* time: hosts own the clock model (drifting affine clocks
    in the simulator, scaled wall clock under asyncio) and the core only
    measures intervals of ``now()``.  ``real_now()`` / ``real_at_local()``
    expose the observer-side real axis the paper's proofs quantify over --
    results bookkeeping only, never protocol decisions.

    Optional extras the evaluators resolve via ``getattr`` (hosts without
    them get safe fallbacks): ``tracer`` (guarded zero-cost tracing),
    ``schedule_after`` itself (timer-less hosts fall back to lazy,
    comparison-based deadline deactivation), and ``resend_gap_d`` (ablation
    knob).
    """

    node_id: int
    params: "ProtocolParams"

    # -- time ----------------------------------------------------------
    def now(self) -> float:
        """Current local-clock reading (protocol time units)."""
        ...

    def real_now(self) -> float:
        """Observer-side real time (results bookkeeping only)."""
        ...

    def real_at_local(self, local_time: float) -> float:
        """Real time at which the local reading equals ``local_time``."""
        ...

    # -- timers --------------------------------------------------------
    def schedule_after(
        self, delay_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        """Run ``action`` after a local-time delay; returns a cancelable handle."""
        ...

    def schedule_at(
        self, when_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        """Run ``action`` at an absolute local time (clamped to now)."""
        ...

    def live_timer_count(self) -> int:
        """Number of still-pending timers scheduled through this host."""
        ...

    def cancel_all_timers(self) -> None:
        """Cancel every pending timer scheduled through this host."""
        ...

    # -- transport -----------------------------------------------------
    def send(self, receiver: int, payload: object) -> None:
        """Point-to-point send with authenticated sender identity."""
        ...

    def broadcast(self, payload: object) -> None:
        """Send to every node, including self (no broadcast medium)."""
        ...

    # -- randomness and tracing ---------------------------------------
    @property
    def rand(self) -> RandomStream:
        """Per-node deterministic random stream."""
        ...

    def trace(self, kind: str, **detail: object) -> None:
        """Record a trace event attributed to this host's node."""
        ...


class InertTimerHandle:
    """A never-armed handle: what a *closed* host returns from scheduling.

    The conformance contract requires every backend to refuse new timers
    after ``close()`` -- returning this shared sentinel keeps the refusal
    allocation-free and makes ``handle.alive`` immediately False.
    """

    __slots__ = ()

    def cancel(self) -> None:
        pass

    @property
    def alive(self) -> bool:
        return False


INERT_TIMER = InertTimerHandle()


class TimerRegistry:
    """Host-side bookkeeping of live timer handles.

    Canceled and fired handles are compacted out amortizedly (the threshold
    doubles with the surviving population, so a host that simply has many
    live timers is not rescanned on every append).  This is what backs
    :meth:`ProtocolHost.live_timer_count` -- the introspection hook the
    timer-hygiene tests assert drains to zero after each agreement instance.
    """

    __slots__ = ("_handles", "_compact_at")

    def __init__(self) -> None:
        self._handles: list[TimerHandle] = []
        self._compact_at = 256

    def track(self, handle: TimerHandle) -> TimerHandle:
        handles = self._handles
        handles.append(handle)
        if len(handles) > self._compact_at:
            self._handles = [h for h in handles if h.alive]
            self._compact_at = max(256, 2 * len(self._handles))
        return handle

    def live_count(self) -> int:
        """Number of handles still pending (compacts as a side effect)."""
        self._handles = [h for h in self._handles if h.alive]
        self._compact_at = max(256, 2 * len(self._handles))
        return len(self._handles)

    def cancel_all(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        self._compact_at = 256


__all__ = [
    "ALWAYS_ENABLED",
    "Action",
    "Delivery",
    "Envelope",
    "INERT_TIMER",
    "InertTimerHandle",
    "ProtocolHost",
    "RandomStream",
    "TimerHandle",
    "TimerRegistry",
    "TraceSink",
    "Transport",
]
