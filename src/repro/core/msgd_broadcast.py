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
The original evaluator (kept verbatim as ``ReferenceMsgdBroadcast`` in the
test oracle ``tests/oracles/eval_ref.py``) re-issued up to seven
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
* The ``now <= anchor + c*Phi`` deadline guards are upper bounds checked
  when a message arrives, against deadlines fixed when the state is built:
  no host timer marks a deadline's passing, so a context never holds one.
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
from repro.runtime.api import ALWAYS_ENABLED, ProtocolHost, RandomStream


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
        "signal",
        "stale",
        "done",
    )

    def __init__(self) -> None:
        self.signal = False
        self.stale = True  # first evaluation runs the full cascade
        self.done = False

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
        """Cancel the watches."""
        self.init_w.cancel()
        self.echo_w.cancel()
        self.initp_w.cancel()
        self.echop_w.cancel()


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
        # Tracer-less hosts get unguarded tracing.
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
        kind = _KINDS.get(type(msg))
        if kind is None:
            raise TypeError(f"not a msgd-broadcast message: {msg!r}")
        # Only the origin itself can init its own broadcast; the network
        # authenticates senders, so an init claiming another origin is
        # Byzantine noise and is discarded (Line W2: "received ... from p").
        if kind == self.INIT and sender != msg.origin:  # type: ignore[attr-defined]
            return
        triplet: Triplet = (msg.origin, msg.value, msg.k)  # type: ignore[attr-defined]
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
        if now <= state.w_deadline and state.init_w.has(origin, now):
            self._send_once(
                self.ECHO, triplet, MBEchoMsg(self.general, origin, value, k)
            )

        # Block X: tau_q <= tau_G + (2k + 1) Phi.
        if now <= state.x_deadline:
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
        if now <= state.y_deadline:
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

        A rule with nothing due reads, in this tick and from the state
        itself (never from a write-path flag: a transient fault writes state
        behind that path's back), and rebuilds nothing:

        * the log: each key's oldest and newest stamp;
        * ``broadcasters``, ``accepted``: the oldest and newest stamp;
        * ``_known_triplets`` and the evaluation states: when nothing above
          decayed and :meth:`_settled` finds the rebuild a no-op, the
          counters are still exact and neither is touched.
        """
        now = self.host.now()
        horizon = self._horizon
        decayed = self.log.decay(now - horizon, now)
        # Stale derived state ages out on the same horizon, and a stamp in
        # the future is clearly wrong.
        broadcasters = self.broadcasters
        if broadcasters and (
            now - min(broadcasters.values()) > horizon
            or max(broadcasters.values()) > now
        ):
            self.broadcasters = {
                node: t
                for node, t in broadcasters.items()
                if now - t <= horizon and t <= now
            }
            decayed = True
        accepted = self.accepted
        if accepted and (
            now - min(accepted.values()) > horizon or max(accepted.values()) > now
        ):
            self.accepted = {
                trip: t
                for trip, t in accepted.items()
                if now - t <= horizon and t <= now
            }
            decayed = True
        if not (self._known_triplets or self.accepted or self._states):
            return
        if not decayed and self._settled():
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

    def _settled(self) -> bool:
        """Every accepted or evaluated triplet is known, and every known one
        has a record or an accept (after a decay that dropped nothing, every
        log key holds a record)."""
        known = self._known_triplets
        accepted = self.accepted.keys()
        if not (accepted <= known and self._states.keys() <= known):
            return False
        live = {key[1:] for key in self.log.keys}
        return known <= live.union(accepted)

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


#: The log-key kind of each message class: the intake's class-keyed dispatch.
_KINDS: dict[type, str] = {
    MBInitMsg: MsgdBroadcast.INIT,
    MBEchoMsg: MsgdBroadcast.ECHO,
    MBInitPrimeMsg: MsgdBroadcast.INIT_PRIME,
    MBEchoPrimeMsg: MsgdBroadcast.ECHO_PRIME,
}


__all__ = ["MsgdBroadcast"]
