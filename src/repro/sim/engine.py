"""Discrete-event simulation kernel.

The simulator maintains a single *real-time* axis (a float, in abstract time
units) and a priority queue of events.  Protocol code never reads real time
directly -- nodes observe time only through their :class:`~repro.sim.clock.
DriftClock` -- but the property checkers and the adversary are allowed to, in
exactly the way the paper's proofs quantify over real time ``rt(.)``.

Determinism
-----------
Two events scheduled for the same real time are executed in the order they
were scheduled (a monotonically increasing sequence number breaks ties), so a
run is a pure function of (scenario, seed).

Fast path
---------
Every message copy and every timer is one event, but not one queue entry.
Heap entries are plain ``(time, seq, action, arg)`` tuples (no dataclass
construction or rich comparison per event -- the seq tiebreak means
``action``/``arg`` are never compared), and the number of live
(non-cancelled) events is tracked incrementally so
:meth:`Simulator.pending_events` is O(1) even in cancellation-heavy runs
such as resend-throttled scenarios.  A timer's ``arg`` is its
:class:`EventHandle`; it runs as ``action()``, then a periodic one is
re-queued (one handle per chain, not one per run).  Message copies travel in
*runs* (:meth:`Simulator.schedule_run`): the copies of one send -- a
broadcast wave, or a lone send as a run of one -- reserve consecutive
``seq`` numbers and share **one** heap entry, keyed by the copy due first
and re-keyed to the next copy each time one runs (a multiway merge of
sorted runs).  A copy in flight is then one 8-byte slot of its run's
``array('d')`` of delivery instants and one 2-byte slot of its
``array('H')`` order, with no float, tuple, envelope or handle of its own,
and the heap holds one entry per wave instead of one per copy.  The pop
order is still the ``(time, seq)`` total order, so a run is bit-identical
to queueing each copy as its own entry.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Any, Callable, Optional, Sequence


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("cancelled", "time", "tag", "_sim", "period")

    def __init__(self, time: float, tag: str = "", _sim: "Optional[Simulator]" = None) -> None:
        self.cancelled = False
        self.time = time
        self.tag = tag
        self._sim = _sim
        # A periodic timer: the run loop re-queues the handle this long
        # after each run (with a fresh seq), unless the run cancelled it.
        self.period: Optional[float] = None

    def cancel(self) -> None:
        """Prevent the event from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            # Still queued (a popped entry severs the backlink first), so the
            # simulator's live-event count shrinks by one.
            if self._sim is not None:
                self._sim._live_events -= 1
                self._sim = None

    @property
    def alive(self) -> bool:
        """True while the event is still queued (not executed, not cancelled)."""
        return self._sim is not None


class _Run:
    """The copies of one :meth:`Simulator.schedule_run` call still queued.

    Copy ``k`` is due at ``times[k]`` with sequence number ``base + k``;
    ``order`` lists the ``k`` in ``(time, seq)`` order and ``pos`` is the
    next one due.  ``arg`` is handed to the run's action with each ``k``.
    On the network's path both are typed arrays, ``times`` an
    ``array('d')`` and ``order`` an ``array('H')`` (a run of one shares
    ``_FIRST``), so a copy in flight is ten bytes and no object.
    """

    __slots__ = ("times", "order", "pos", "base", "arg")

    def __init__(self, times: Sequence[float], order: Any, base: int, arg: Any) -> None:
        self.times = times
        self.order = order
        self.pos = 0
        self.base = base
        self.arg = arg


_FIRST = (0,)  # the order of every run of one


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the real-time axis.  Non-zero starts are useful for
        tests that want to prove nothing depends on absolute time.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[Any] = []
        self._next_seq = 0
        self._live_events = 0
        self._events_executed = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Time and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current real time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for budget checks in tests)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return self._live_events

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, action: Callable[[], None], tag: str = ""
    ) -> EventHandle:
        """Schedule ``action`` to run at absolute real time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        handle = EventHandle(time, tag, _sim=self)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, seq, action, handle))
        self._live_events += 1
        return handle

    def schedule_in(
        self, delay: float, action: Callable[[], None], tag: str = ""
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` real-time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, action, tag)

    def schedule_run(
        self, times: Sequence[float], action: Callable[[Any, int], None], arg: Any
    ) -> None:
        """Fire-and-forget batch: ``action(arg, k)`` runs at ``times[k]``.

        Every ``k`` reserves its own consecutive ``seq``, so the copies run
        exactly where one ``schedule_at`` per copy, made in ``k`` order,
        would have run them -- but the whole batch is one heap entry, keyed
        by its earliest ``(time, seq)`` and re-keyed to the next one each
        time one runs.  No :class:`EventHandle` and no tag: a batch is never
        cancelled.  Each ``k`` counts toward :attr:`pending_events`.
        """
        count = len(times)
        if count == 1:
            order: Any = _FIRST
        else:
            order = array("H", sorted(range(count), key=times.__getitem__))
        k = order[0]
        if times[k] < self._now:
            raise SimulationError(
                f"cannot schedule event at t={times[k]:.6f} before now={self._now:.6f}"
            )
        base = self._next_seq
        self._next_seq = base + count
        self._live_events += count
        heapq.heappush(
            self._queue, (times[k], base + k, action, _Run(times, order, base, arg))
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        return self._run_loop(until=None, max_events=1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is reached).

        Returns the number of events executed by this call.
        """
        return self._run_loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``until``; advances ``now`` to ``until``.

        Events scheduled beyond ``until`` stay queued.  Returns the number of
        events executed by this call.
        """
        executed = self._run_loop(until=until, max_events=max_events)
        if not self._stop_requested and self._now < until:
            self._now = until
        return executed

    def stop(self) -> None:
        """Request the current :meth:`run` / :meth:`run_until` to stop."""
        self._stop_requested = True

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        executed = 0
        # -1 never equals a count, so no max_events means no budget.
        budget = -1 if max_events is None else max(0, max_events)
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        try:
            # Look first, then take: a run with copies left is re-keyed in
            # place (one heap operation per event either way).  A cancelled
            # timer is dropped; an entry beyond ``until`` stays queued.
            while queue and executed != budget and not self._stop_requested:
                entry = queue[0]
                time = entry[0]
                if until is not None and time > until:
                    break
                arg = entry[3]
                timer = arg.__class__ is EventHandle
                if timer:
                    heappop(queue)
                    if arg.cancelled:
                        continue
                    arg._sim = None
                else:
                    # A run: take its head copy, re-key it to the next one.
                    order = arg.order
                    pos = arg.pos
                    k = order[pos]
                    pos += 1
                    if pos < len(order):
                        arg.pos = pos
                        nxt = order[pos]
                        heapreplace(queue, (arg.times[nxt], arg.base + nxt, entry[2], arg))
                    else:
                        heappop(queue)
                self._live_events -= 1
                self._now = time
                self._events_executed += 1
                executed += 1
                if timer:
                    entry[2]()
                    if arg.period is not None and not arg.cancelled:
                        at = arg.time = time + arg.period
                        arg._sim = self
                        seq = self._next_seq
                        self._next_seq = seq + 1
                        heappush(queue, (at, seq, entry[2], arg))
                        self._live_events += 1
                else:
                    entry[2](arg.arg, k)
        finally:
            self._running = False
        return executed


__all__ = ["EventHandle", "SimulationError", "Simulator"]
