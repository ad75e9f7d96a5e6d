"""The msgd-broadcast primitive (paper Section 5, Figure 3).

A message-driven replacement for the synchronous Reliable Broadcast of
Toueg, Perry and Srikanth [TPS'87].  Two departures from the original:

1. Rounds are **anchored** at ``tau_G`` -- the local-time estimate of the
   General's initiation produced by Initiator-Accept -- instead of a global
   round clock.  Every deadline below is of the form
   ``tau_q <= tau_G + c * Phi``.
2. Deadlines are **upper bounds only**: a node acts as soon as the required
   messages arrive, so under fast actual delivery the primitive (and the
   agreement above it) *rushes* ahead of the worst-case phase structure.
   This is the property experiment E5 measures against the time-driven
   baseline.

Messages arriving before the anchor is known are logged and replayed the
moment Initiator-Accept sets the anchor ("nodes log messages until they are
able to process them").

Satisfies TPS-1 (Correctness), TPS-2 (Unforgeability), TPS-3 (Relay) and
TPS-4 (Detection of broadcasters) once the system is stable -- checked
mechanically by :mod:`repro.harness.properties`.

Push-based evaluation
---------------------
The original evaluator (kept verbatim as
:class:`repro.core.eval_ref.ReferenceMsgdBroadcast`) re-issued up to seven
window queries per triplet per arrival.  This implementation inverts that
pull model:

* Each known ``(p, m, k)`` triplet holds a :class:`_TripletState` with four
  :class:`~repro.node.msglog.FreshWindowWatch` subscriptions -- incremental
  fresh-distinct-sender counters over ``[anchor, now]`` for init / echo /
  init' / echo' -- registered with the weak/strong quorum thresholds (and
  the origin as Block W's sentinel sender).  A threshold crossing fires a
  callback that flags the state; an arrival that crosses nothing and has no
  pending future-stamped records is provably unable to newly satisfy any
  block guard, so it costs one counter update and returns -- O(1) instead
  of seven window scans.
* Once every one-shot action of a triplet has fired (echo / init' / echo'
  sent, accepted, origin a broadcaster), the state is marked *done* and
  arrivals skip evaluation outright.
* The ``now <= anchor + c*Phi`` deadline guards are deactivated exactly
  once by a chained deadline timer scheduled on the host (via the sans-I/O
  ``schedule_after`` hook), instead of being re-derived on every arrival;
  between a deadline and its timer firing, the retained comparison keeps
  the boundary semantics bit-identical to the reference.
* Anything the counters cannot track incrementally -- cleanup pruning,
  decay of ``broadcasters``/``accepted``, transient corruption, anchor
  changes -- conservatively marks states stale (or drops them), and the
  next arrival re-evaluates the full block cascade from the log.

``tests/test_eval_equiv.py`` drives this evaluator and the reference
through randomized adversarial schedules and demands identical behaviour.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.messages import (
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    Value,
)
from repro.node.msglog import FreshWindowWatch, MessageLog
from repro.runtime.api import ALWAYS_ENABLED, ProtocolHost, RandomStream, TimerHandle


# Callback signature: (origin p, value m, round k, accept local-time).
AcceptCallback = Callable[[int, Value, int, float], None]
# Callback: origin p was added to broadcasters.
BroadcasterCallback = Callable[[int], None]

Triplet = tuple[int, Value, int]  # (p, m, k)


class _TripletState:
    """Incremental evaluation state for one (p, m, k) under one anchor."""

    __slots__ = (
        "anchor",
        "init_w",
        "echo_w",
        "initp_w",
        "echop_w",
        "w_deadline",
        "x_deadline",
        "y_deadline",
        "w_active",
        "x_active",
        "y_active",
        "signal",
        "stale",
        "done",
        "timer",
    )

    def __init__(self) -> None:
        self.signal = False
        self.stale = True  # first evaluation runs the full cascade
        self.done = False
        self.w_active = True
        self.x_active = True
        self.y_active = True
        self.timer: Optional[TimerHandle] = None  # pending deadline-chain hop

    def wake(self, _watch: FreshWindowWatch) -> None:
        """Threshold-crossing / sentinel-maturation callback."""
        self.signal = True

    @property
    def has_pending(self) -> bool:
        """Future-stamped records that may mature into any counter."""
        return (
            self.init_w.has_pending
            or self.echo_w.has_pending
            or self.initp_w.has_pending
            or self.echop_w.has_pending
        )

    def release(self) -> None:
        """Cancel the watches *and* the pending deadline-chain timer.

        Dropping a state without releasing its timer handle would leak the
        handle in the host's registry until the deadline passed; hygiene is
        asserted by ``ProtocolHost.live_timer_count()`` in the tests.
        """
        self.init_w.cancel()
        self.echo_w.cancel()
        self.initp_w.cancel()
        self.echop_w.cancel()
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class MsgdBroadcast:
    """One msgd-broadcast context: all (p, m, k) triplets for one General."""

    INIT = "mb_init"
    ECHO = "mb_echo"
    INIT_PRIME = "mb_init_prime"
    ECHO_PRIME = "mb_echo_prime"

    def __init__(
        self,
        host: ProtocolHost,
        general: int,
        on_accept: AcceptCallback,
        on_broadcaster: Optional[BroadcasterCallback] = None,
    ) -> None:
        self.host = host
        self.general = general
        self.on_accept = on_accept
        self.on_broadcaster = on_broadcaster
        self.params = host.params

        self.anchor: Optional[float] = None  # tau_G on this node's clock
        self.log = MessageLog()
        self.broadcasters: dict[int, float] = {}  # node -> local add time
        self.accepted: dict[Triplet, float] = {}  # triplet -> local accept time
        self._sent: set[tuple[str, Triplet]] = set()
        self._known_triplets: set[Triplet] = set()
        self._states: dict[Triplet, _TripletState] = {}

        # Decay horizon for messages and derived state (see cleanup).
        self._horizon = (2 * self.params.f + 3) * self.params.phi
        self._deadline_eps = self.params.d * 1e-9
        # Optional host extras: timer-less hosts fall back to lazy,
        # comparison-based deadline deactivation; tracer-less hosts get
        # unguarded tracing.  Behaviour is identical either way.
        self._schedule_after = getattr(host, "schedule_after", None)
        self._tracer = getattr(host, "tracer", ALWAYS_ENABLED)

    # ------------------------------------------------------------------
    # Anchor management
    # ------------------------------------------------------------------
    def set_anchor(self, tau_g: float) -> None:
        """Define ``tau_G``; replays any backlog logged before it was known."""
        if self._states:
            self._drop_states()
        self.anchor = tau_g
        for triplet in sorted(self._known_triplets, key=repr):
            self.evaluate(triplet)

    def clear_anchor(self) -> None:
        """Undefine the anchor (instance reset)."""
        self.anchor = None
        self._drop_states()

    def _drop_states(self) -> None:
        for state in self._states.values():
            state.release()
        self._states.clear()

    # ------------------------------------------------------------------
    # Invocation (Block V)
    # ------------------------------------------------------------------
    def invoke(self, value: Value, k: int) -> None:
        """msgd-broadcast (q, value, k): send init to all (Line V)."""
        msg = MBInitMsg(self.general, self.host.node_id, value, k)
        self.host.broadcast(msg)
        self.host.trace(
            "mb_invoke", general=self.general, value=value, k=k
        )

    # ------------------------------------------------------------------
    # Message intake
    # ------------------------------------------------------------------
    def on_message(self, msg: object, sender: int) -> None:
        """Log an arriving message; evaluate blocks if the anchor is known."""
        now = self.host.now()
        if isinstance(msg, MBInitMsg):
            # Only the origin itself can init its own broadcast; the network
            # authenticates senders, so an init claiming another origin is
            # Byzantine noise and is discarded (Line W2: "received ... from p").
            if sender != msg.origin:
                return
            kind = self.INIT
        elif isinstance(msg, MBEchoMsg):
            kind = self.ECHO
        elif isinstance(msg, MBInitPrimeMsg):
            kind = self.INIT_PRIME
        elif isinstance(msg, MBEchoPrimeMsg):
            kind = self.ECHO_PRIME
        else:
            raise TypeError(f"not a msgd-broadcast message: {msg!r}")
        triplet: Triplet = (msg.origin, msg.value, msg.k)
        self._known_triplets.add(triplet)
        # The add feeds the triplet's counters; a quorum crossing or the
        # origin's init maturing sets state.signal synchronously.
        self.log.add((kind,) + triplet, sender, now)
        if self.anchor is None:
            return
        state = self._states.get(triplet)
        if state is None:
            self.evaluate(triplet)
            return
        if state.done:
            return
        if state.signal or state.stale or state.has_pending:
            self._run_blocks(triplet, state)

    # ------------------------------------------------------------------
    # Blocks W, X, Y, Z
    # ------------------------------------------------------------------
    def evaluate(self, triplet: Triplet) -> None:
        """Run the blocks for one (p, m, k) triplet unconditionally."""
        if self.anchor is None:
            return
        state = self._states.get(triplet)
        if state is None:
            state = self._make_state(triplet)
        self._run_blocks(triplet, state)

    def _make_state(self, triplet: Triplet) -> _TripletState:
        anchor = self.anchor
        p = self.params
        phi = p.phi
        k = triplet[2]
        state = _TripletState()
        state.anchor = anchor
        state.w_deadline = anchor + 2 * k * phi
        state.x_deadline = anchor + (2 * k + 1) * phi
        state.y_deadline = anchor + (2 * k + 2) * phi
        log = self.log
        wake = state.wake
        thresholds = (p.weak_quorum, p.strong_quorum)
        state.init_w = log.watch(
            (self.INIT,) + triplet, anchor, sentinel=triplet[0], on_event=wake
        )
        state.echo_w = log.watch(
            (self.ECHO,) + triplet, anchor, thresholds, on_event=wake
        )
        state.initp_w = log.watch(
            (self.INIT_PRIME,) + triplet, anchor, thresholds, on_event=wake
        )
        state.echop_w = log.watch(
            (self.ECHO_PRIME,) + triplet, anchor, thresholds, on_event=wake
        )
        self._states[triplet] = state
        self._arm_deadline_timer(triplet, state)
        return state

    def _run_blocks(self, triplet: Triplet, state: _TripletState) -> None:
        now = self.host.now()
        origin, value, k = triplet
        weak = self.params.weak_quorum
        strong = self.params.strong_quorum

        # Primitive instances are "implicitly associated with the agreement
        # instance that invoked them" (paper Section 3): only messages that
        # arrived within *this* execution -- i.e. at or after the anchor --
        # count as evidence.  Stragglers of a previous execution of the same
        # General predate the current anchor and are scoped out.

        # Block W: tau_q <= tau_G + 2k Phi -- echo the origin's init.
        if state.w_active:
            if now > state.w_deadline:
                state.w_active = False
            elif state.init_w.has(origin, now):
                self._send_once(
                    self.ECHO, triplet, MBEchoMsg(self.general, origin, value, k)
                )

        # Block X: tau_q <= tau_G + (2k + 1) Phi.
        if state.x_active:
            if now > state.x_deadline:
                state.x_active = False
            else:
                echoes = state.echo_w.count(now)
                if echoes >= weak:
                    self._send_once(
                        self.INIT_PRIME,
                        triplet,
                        MBInitPrimeMsg(self.general, origin, value, k),
                    )
                if echoes >= strong:
                    self._accept(triplet, now)

        # Block Y: tau_q <= tau_G + (2k + 2) Phi.
        if state.y_active:
            if now > state.y_deadline:
                state.y_active = False
            else:
                init_primes = state.initp_w.count(now)
                if init_primes >= weak and origin not in self.broadcasters:
                    self.broadcasters[origin] = now
                    self.host.trace(
                        "mb_broadcaster", general=self.general, origin=origin, k=k
                    )
                    if self.on_broadcaster is not None:
                        self.on_broadcaster(origin)
                if init_primes >= strong:
                    self._send_once(
                        self.ECHO_PRIME,
                        triplet,
                        MBEchoPrimeMsg(self.general, origin, value, k),
                    )

        # Block Z: at any time.
        echo_primes = state.echop_w.count(now)
        if echo_primes >= weak:
            self._send_once(
                self.ECHO_PRIME, triplet, MBEchoPrimeMsg(self.general, origin, value, k)
            )
        if echo_primes >= strong:
            self._accept(triplet, now)

        state.signal = False
        state.stale = False
        sent = self._sent
        state.done = (
            triplet in self.accepted
            and origin in self.broadcasters
            and (self.ECHO, triplet) in sent
            and (self.INIT_PRIME, triplet) in sent
            and (self.ECHO_PRIME, triplet) in sent
        )

    # ------------------------------------------------------------------
    # Deadline timers (blocks deactivate exactly once)
    # ------------------------------------------------------------------
    def _arm_deadline_timer(self, triplet: Triplet, state: _TripletState) -> None:
        """Chain one local timer through the W/X/Y deadlines of a state.

        Each firing flips the expired blocks' active flags and reschedules
        for the next pending deadline, so steady-state arrivals skip even
        the deadline comparison.  Timers fire ``eps`` after the deadline
        (the guards are inclusive); the retained ``now <= deadline`` check
        in :meth:`_run_blocks` covers the gap exactly.

        The pending hop's handle is kept on the state (``state.timer``) and
        canceled by :meth:`_TripletState.release` the moment the state is
        dropped -- anchor change, reset, cleanup retirement -- so dead
        chains never linger in the host's timer registry.  A chain that
        runs to its natural end (all blocks expired) clears the handle
        itself.
        """
        schedule_after = self._schedule_after
        if schedule_after is None:
            return  # hosts without timers fall back to lazy deactivation

        # Belt and braces: release() cancels the pending hop when a state
        # is dropped, and a stale firing that slips through anyway finds a
        # different object in ``_states`` and stops.
        def fire() -> None:
            state.timer = None  # this hop's handle was just consumed
            if self._states.get(triplet) is not state:
                return
            now = self.host.now()
            if state.w_active and now > state.w_deadline:
                state.w_active = False
            if state.x_active and now > state.x_deadline:
                state.x_active = False
            if state.y_active and now > state.y_deadline:
                state.y_active = False
            next_deadline = None
            if state.w_active:
                next_deadline = state.w_deadline
            elif state.x_active:
                next_deadline = state.x_deadline
            elif state.y_active:
                next_deadline = state.y_deadline
            if next_deadline is not None:
                state.timer = schedule_after(
                    max(0.0, next_deadline - now) + self._deadline_eps,
                    fire,
                    tag="mb_deadline",
                )

        now = self.host.now()
        state.timer = schedule_after(
            max(0.0, state.w_deadline - now) + self._deadline_eps,
            fire,
            tag="mb_deadline",
        )

    def _send_once(self, kind: str, triplet: Triplet, payload: object) -> None:
        """Nodes send specific messages only once (Figure 3 header note)."""
        if (kind, triplet) in self._sent:
            return
        self._sent.add((kind, triplet))
        self.host.broadcast(payload)
        if self._tracer.enabled:
            self.host.trace(
                f"{kind}_sent",
                general=self.general,
                origin=triplet[0],
                value=triplet[1],
                k=triplet[2],
            )

    def _accept(self, triplet: Triplet, now: float) -> None:
        """Accept (p, m, k) -- only once per triplet (Line Z5 note)."""
        if triplet in self.accepted:
            return
        self.accepted[triplet] = now
        origin, value, k = triplet
        if self._tracer.enabled:
            self.host.trace(
                "mb_accept", general=self.general, origin=origin, value=value, k=k
            )
        self.on_accept(origin, value, k, now)

    # ------------------------------------------------------------------
    # Cleanup, reset, corruption
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Decay rule: drop messages older than ``(2f + 3) Phi``.

        Each rule is skipped when the state it decays is empty *now* (read
        from the state itself, never from a write-path flag: a transient
        fault writes state behind that path's back).
        """
        now = self.host.now()
        horizon = self._horizon
        self.log.prune_older_than(now - horizon)
        self.log.prune_future(now)
        # Stale derived state ages out on the same horizon.
        if self.broadcasters:
            self.broadcasters = {
                node: t for node, t in self.broadcasters.items() if now - t <= horizon
            }
        if self.accepted:
            self.accepted = {
                trip: t
                for trip, t in self.accepted.items()
                if now - t <= horizon and t <= now
            }
        if not (self._known_triplets or self.accepted or self._states):
            return
        self._known_triplets = {
            trip
            for trip in self._known_triplets
            if any(
                self.log.count_distinct((kind,) + trip) > 0
                for kind in (self.INIT, self.ECHO, self.INIT_PRIME, self.ECHO_PRIME)
            )
        } | set(self.accepted)
        # Pruning and derived-state decay can re-enable block actions the
        # counters alone would not flag: force full re-evaluation per state
        # and retire states for forgotten triplets.
        known = self._known_triplets
        dead = [trip for trip in self._states if trip not in known]
        for trip in dead:
            self._states.pop(trip).release()
        for state in self._states.values():
            state.stale = True
            state.done = False

    def reset(self) -> None:
        """Full reset (3d after the agreement instance returns)."""
        self.anchor = None
        self.log.clear()
        self.broadcasters.clear()
        self.accepted.clear()
        self._sent.clear()
        self._known_triplets.clear()
        self._drop_states()
        self.host.trace("mb_reset", general=self.general)

    def corrupt(self, rng: RandomStream, value_pool: list[Value]) -> None:
        """Transient fault: scramble anchor, logs, and derived sets."""
        now = self.host.now()
        p = self.params
        span = p.delta_stb
        if rng.chance(0.5):
            self.anchor = now + rng.uniform(-span, span)
        for node in range(p.n):
            if rng.chance(0.3):
                self.broadcasters[node] = now + rng.uniform(-span, 0)
        for value in value_pool:
            for k in range(1, p.f + 2):
                triplet: Triplet = (rng.randint(0, p.n - 1), value, k)
                self._known_triplets.add(triplet)
                if rng.chance(0.3):
                    self.accepted[triplet] = now + rng.uniform(-span, 0)
                for kind in (self.INIT, self.ECHO, self.INIT_PRIME, self.ECHO_PRIME):
                    for sender in range(p.n):
                        if rng.chance(0.15):
                            self.log.corrupt_insert(
                                (kind,) + triplet, sender, now + rng.uniform(-span, span)
                            )
        # The anchor and every derived set may have changed under the
        # counters' feet: rebuild evaluation state from scratch.
        self._drop_states()
        self.host.trace("mb_corrupted", general=self.general)


__all__ = ["MsgdBroadcast"]
