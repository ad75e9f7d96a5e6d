"""Reference (pull-based) evaluators for the two primitives.

These are the *eager* evaluators exactly as they stood before the push-based
rewrite of :mod:`repro.core.msgd_broadcast` and
:mod:`repro.core.initiator_accept`: every message arrival re-runs the full
block cascade, and every block re-issues its window queries against the
message log.  They are kept verbatim as the behavioural oracle for the
incremental evaluators -- ``tests/test_eval_equiv.py`` drives both through
thousands of randomized adversarial schedules (Byzantine corruption,
pruning, anchor resets) and demands identical send/accept/trace sequences,
and the ``evaluator_push`` gate of ``scripts/ratio_gates.py`` pits them
head to head (the push path must win by >= 3x).

Do not "optimize" this module -- its eagerness is its value.  It mirrors
the differential-reference pattern of :mod:`tests.oracles.msglog_ref`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.messages import (
    ApproveMsg,
    InitiatorMsg,
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    ReadyMsg,
    SupportMsg,
    Value,
)
from repro.node.msglog import MessageLog
from repro.runtime.api import ProtocolHost, RandomStream



def eager_fresh_senders(log: MessageLog, key, start: float, now: float) -> set:
    """The eager oracle for one anchored window: a full rescan, no caches.

    Recomputes "senders with an arrival in the closed window [start, now]"
    by a linear scan of the log's raw time axis -- the semantics every
    fresh-window count in this module's evaluators (and the incremental
    :meth:`~repro.node.msglog.MessageLog.watch` counters that replace them)
    must reproduce.  ``tests/test_eval_equiv.py`` fuzzes the watch API
    against this function through long adversarial schedules.
    """
    klog = log._keys.get(key)
    if klog is None:
        return set()
    return {
        sender
        for arrival, sender in zip(klog.times, klog.time_senders)
        if start <= arrival <= now
    }


# Callback signatures shared with the incremental evaluators.
MbAcceptCallback = Callable[[int, Value, int, float], None]
BroadcasterCallback = Optional[Callable[[int], None]]
IaAcceptCallback = Callable[[Value, float], None]

Triplet = tuple[int, Value, int]  # (p, m, k)


class ReferenceMsgdBroadcast:
    """Pull-based msgd-broadcast context: all (p, m, k) triplets for one General."""

    INIT = "mb_init"
    ECHO = "mb_echo"
    INIT_PRIME = "mb_init_prime"
    ECHO_PRIME = "mb_echo_prime"

    def __init__(
        self,
        host: ProtocolHost,
        general: int,
        on_accept: MbAcceptCallback,
        on_broadcaster: BroadcasterCallback = None,
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

    # ------------------------------------------------------------------
    # Anchor management
    # ------------------------------------------------------------------
    def set_anchor(self, tau_g: float) -> None:
        """Define ``tau_G``; replays any backlog logged before it was known."""
        self.anchor = tau_g
        for triplet in sorted(self._known_triplets, key=repr):
            self.evaluate(triplet)

    def clear_anchor(self) -> None:
        """Undefine the anchor (instance reset)."""
        self.anchor = None

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
        self.log.add((kind,) + triplet, sender, now)
        if self.anchor is not None:
            self.evaluate(triplet)

    # ------------------------------------------------------------------
    # Blocks W, X, Y, Z
    # ------------------------------------------------------------------
    def evaluate(self, triplet: Triplet) -> None:
        """Re-run the blocks for one (p, m, k) triplet."""
        if self.anchor is None:
            return
        now = self.host.now()
        origin, value, k = triplet
        p = self.params
        phi = p.phi
        anchor = self.anchor

        init_key = (self.INIT,) + triplet
        echo_key = (self.ECHO,) + triplet
        initp_key = (self.INIT_PRIME,) + triplet
        echop_key = (self.ECHO_PRIME,) + triplet

        # Primitive instances are "implicitly associated with the agreement
        # instance that invoked them" (paper Section 3): only messages that
        # arrived within *this* execution -- i.e. at or after the anchor --
        # count as evidence.  Stragglers of a previous execution of the same
        # General predate the current anchor and are scoped out.
        def fresh_count(key) -> int:
            return self.log.count_distinct_in(key, anchor, now)

        # Block W: tau_q <= tau_G + 2k Phi -- echo the origin's init.
        if now <= anchor + 2 * k * phi:
            if origin in self.log.distinct_senders_in(init_key, anchor, now):
                self._send_once(self.ECHO, triplet, MBEchoMsg(*((self.general,) + triplet)))

        # Block X: tau_q <= tau_G + (2k + 1) Phi.
        if now <= anchor + (2 * k + 1) * phi:
            echoes = fresh_count(echo_key)
            if echoes >= p.weak_quorum:
                self._send_once(
                    self.INIT_PRIME, triplet, MBInitPrimeMsg(*((self.general,) + triplet))
                )
            if echoes >= p.strong_quorum:
                self._accept(triplet, now)

        # Block Y: tau_q <= tau_G + (2k + 2) Phi.
        if now <= anchor + (2 * k + 2) * phi:
            init_primes = fresh_count(initp_key)
            if init_primes >= p.weak_quorum and origin not in self.broadcasters:
                self.broadcasters[origin] = now
                self.host.trace(
                    "mb_broadcaster", general=self.general, origin=origin, k=k
                )
                if self.on_broadcaster is not None:
                    self.on_broadcaster(origin)
            if init_primes >= p.strong_quorum:
                self._send_once(
                    self.ECHO_PRIME, triplet, MBEchoPrimeMsg(*((self.general,) + triplet))
                )

        # Block Z: at any time.
        echo_primes = fresh_count(echop_key)
        if echo_primes >= p.weak_quorum:
            self._send_once(
                self.ECHO_PRIME, triplet, MBEchoPrimeMsg(*((self.general,) + triplet))
            )
        if echo_primes >= p.strong_quorum:
            self._accept(triplet, now)

    def _send_once(self, kind: str, triplet: Triplet, payload: object) -> None:
        """Nodes send specific messages only once (Figure 3 header note)."""
        if (kind, triplet) in self._sent:
            return
        self._sent.add((kind, triplet))
        self.host.broadcast(payload)
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
        self.host.trace(
            "mb_accept", general=self.general, origin=origin, value=value, k=k
        )
        self.on_accept(origin, value, k, now)

    # ------------------------------------------------------------------
    # Cleanup, reset, corruption
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Decay rule: drop messages older than ``(2f + 3) Phi``."""
        now = self.host.now()
        horizon = (2 * self.params.f + 3) * self.params.phi
        self.log.prune_older_than(now - horizon)
        self.log.prune_future(now)
        # Stale derived state ages out on the same horizon.
        self.broadcasters = {
            node: t for node, t in self.broadcasters.items() if now - t <= horizon
        }
        self.accepted = {
            trip: t
            for trip, t in self.accepted.items()
            if now - t <= horizon and t <= now
        }
        self._known_triplets = {
            trip
            for trip in self._known_triplets
            if any(
                self.log.count_distinct((kind,) + trip) > 0
                for kind in (self.INIT, self.ECHO, self.INIT_PRIME, self.ECHO_PRIME)
            )
        } | set(self.accepted)

    def reset(self) -> None:
        """Full reset (3d after the agreement instance returns)."""
        self.anchor = None
        self.log.clear()
        self.broadcasters.clear()
        self.accepted.clear()
        self._sent.clear()
        self._known_triplets.clear()
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
        self.host.trace("mb_corrupted", general=self.general)




@dataclass
class _IValueEntry:
    """One entry of ``i_values[G, *]``: a recording time plus its write time."""

    recording: float
    written_at: float


class _TimedFlag:
    """A boolean that remembers when it was last set (for decay)."""

    __slots__ = ("set_at",)

    def __init__(self) -> None:
        self.set_at: Optional[float] = None

    def set(self, now: float) -> None:
        self.set_at = now

    def is_set(self, now: float, max_age: float) -> bool:
        return (
            self.set_at is not None
            and self.set_at <= now
            and now - self.set_at <= max_age
        )

    def clear(self) -> None:
        self.set_at = None


class _HistoryVar:
    """A scalar with a change history, answering "what was it at time T?".

    Used for ``last(G, m)``: Line K1 needs its value *d time units in the
    past* (the data structure "reflects that information", per the paper).
    """

    def __init__(self) -> None:
        self.current: Optional[float] = None
        self._history: list[tuple[float, Optional[float]]] = []

    def assign(self, now: float, value: Optional[float]) -> None:
        self.current = value
        self._history.append((now, value))

    def value_at(self, when: float) -> Optional[float]:
        """Value at an earlier time; entries before any record are BOTTOM."""
        result: Optional[float] = None
        for time, value in self._history:
            if time <= when:
                result = value
            else:
                break
        return result

    def prune(self, horizon: float) -> None:
        """Drop history before ``horizon`` keeping the last earlier entry."""
        keep_from = 0
        for idx, (time, _value) in enumerate(self._history):
            if time < horizon:
                keep_from = idx
        self._history = self._history[keep_from:]


class ReferenceInitiatorAccept:
    """Pull-based Initiator-Accept instance: this node's view of General ``G``."""

    SUPPORT = "support"
    APPROVE = "approve"
    READY = "ready"

    def __init__(
        self,
        host: ProtocolHost,
        general: int,
        on_accept: IaAcceptCallback,
    ) -> None:
        self.host = host
        self.general = general
        self.on_accept = on_accept
        self.params = host.params
        self.log = MessageLog()

        # The paper's per-(G, m) data structures.
        self.i_values: dict[Value, _IValueEntry] = {}
        self.last_g: Optional[float] = None
        self.last_gm: dict[Value, _HistoryVar] = {}
        self.ready: dict[Value, _TimedFlag] = {}
        self.ignore_until: dict[Value, float] = {}

        # Implementation bookkeeping.
        self._own_support_sends: list[tuple[float, Value]] = []
        self._sent_at: dict[tuple[str, Value], float] = {}
        self.line_exec: dict[tuple[str, Value], float] = {}
        # Re-send throttle gap (the ablation bench sweeps this).
        self.resend_gap = host.params.d * getattr(host, "resend_gap_d", 1.0)

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.host.now()

    def _key(self, kind: str, value: Value):
        return (kind, self.general, value)

    def _last_gm(self, value: Value) -> _HistoryVar:
        if value not in self.last_gm:
            self.last_gm[value] = _HistoryVar()
        return self.last_gm[value]

    def _touch_last_gm(self, value: Value, now: float) -> None:
        self._last_gm(value).assign(now, now)

    def _ready_flag(self, value: Value) -> _TimedFlag:
        if value not in self.ready:
            self.ready[value] = _TimedFlag()
        return self.ready[value]

    def _may_send(self, kind: str, value: Value, now: float) -> bool:
        """Re-send throttle: identical messages at most once per ``d``.

        The paper allows unbounded repetition ("we ignore possible
        optimizations that can save such repetitive sending"); the proofs
        only rely on the *existence* of the sends, so throttling to one per
        ``d`` preserves every liveness argument while keeping message counts
        meaningful for the complexity experiments.
        """
        sent = self._sent_at.get((kind, value))
        return sent is None or now - sent > self.resend_gap

    def _do_send(self, kind: str, value: Value, payload: object) -> None:
        now = self._now()
        self._sent_at[(kind, value)] = now
        if kind == self.SUPPORT:
            self._own_support_sends.append((now, value))
        self.host.broadcast(payload)
        self.host.trace(f"ia_{kind}_sent", general=self.general, value=value)

    def _ignoring(self, value: Value, now: float) -> bool:
        return self.ignore_until.get(value, -float("inf")) > now

    # ------------------------------------------------------------------
    # Block K: invocation (on receiving the General's Initiator message)
    # ------------------------------------------------------------------
    def invoke(self, value: Value) -> bool:
        """Execute Block K; returns True iff Line K1 passed (K2 executed)."""
        now = self._now()
        d = self.params.d
        if self._ignoring(value, now):
            return False
        if not self._k1_condition(value, now):
            self.host.trace("ia_k1_rejected", general=self.general, value=value)
            return False
        # Line K2: record a time prior to the invocation (hence the -d),
        # send support to all, and stamp last(G, m).
        self.i_values[value] = _IValueEntry(recording=now - d, written_at=now)
        self._do_send(self.SUPPORT, value, SupportMsg(self.general, value))
        self._touch_last_gm(value, now)
        self.line_exec[("K2", value)] = now
        return True

    def _k1_condition(self, value: Value, now: float) -> bool:
        d = self.params.d
        # i_values[G, m'] = BOTTOM for every m' != m  (current state).
        for other, entry in self.i_values.items():
            if other != value and self._i_value_live(entry, now):
                return False
        # last(G) = BOTTOM  (current state).
        if self.last_g is not None:
            return False
        # Did not send any (support, G, *) in [tau - d, tau].
        if any(now - d <= t <= now for t, _v in self._own_support_sends):
            return False
        # last(G, m) = BOTTOM at tau - d  (state d time units ago).
        history = self.last_gm.get(value)
        if history is not None and history.value_at(now - d) is not None:
            return False
        return True

    def _i_value_live(self, entry: _IValueEntry, now: float) -> bool:
        return (
            entry.written_at <= now
            and now - entry.written_at <= self.params.delta_rmv
        )

    # ------------------------------------------------------------------
    # Message intake
    # ------------------------------------------------------------------
    def on_message(self, msg: object, sender: int) -> None:
        """Log an arriving primitive message and re-evaluate the blocks."""
        now = self._now()
        if isinstance(msg, InitiatorMsg):
            # Block Q1 of the caller routes Initiator messages to invoke();
            # they are not logged here.
            return
        if isinstance(msg, SupportMsg):
            kind = self.SUPPORT
        elif isinstance(msg, ApproveMsg):
            kind = self.APPROVE
        elif isinstance(msg, ReadyMsg):
            kind = self.READY
        else:
            raise TypeError(f"not an Initiator-Accept message: {msg!r}")
        value = msg.value  # type: ignore[attr-defined]
        if self._ignoring(value, now):
            return
        self.log.add(self._key(kind, value), sender, now)
        self.evaluate(value)

    # ------------------------------------------------------------------
    # Blocks L, M, N (guards over the message log)
    # ------------------------------------------------------------------
    def evaluate(self, value: Value) -> None:
        """Re-run Lines L1..N4 for one value (the paper's "repeatedly")."""
        now = self._now()
        if self._ignoring(value, now):
            return
        self._block_l(value, now)
        self._block_m(value, now)
        self._block_n(value, now)

    def _block_l(self, value: Value, now: float) -> None:
        p = self.params
        d = p.d
        support_key = self._key(self.SUPPORT, value)

        # L1/L2: weak quorum of support within the shortest window <= 4d.
        kth = self.log.kth_latest_distinct(support_key, p.weak_quorum)
        if kth is not None and now - kth <= 4.0 * d:
            new_recording = kth - 2.0 * d
            entry = self.i_values.get(value)
            if entry is None or not self._i_value_live(entry, now):
                self.i_values[value] = _IValueEntry(new_recording, now)
            elif new_recording > entry.recording:
                self.i_values[value] = _IValueEntry(new_recording, now)
            else:
                entry.written_at = now  # refresh expiry
            self._touch_last_gm(value, now)
            self.line_exec[("L2", value)] = now

        # L3/L4: strong quorum of support within [tau - 2d, tau] -> approve.
        strong = self.log.count_distinct_in(support_key, now - 2.0 * d, now)
        if strong >= p.strong_quorum and self._may_send(self.APPROVE, value, now):
            self._do_send(self.APPROVE, value, ApproveMsg(self.general, value))
            self._touch_last_gm(value, now)
            self.line_exec[("L4", value)] = now

    def _block_m(self, value: Value, now: float) -> None:
        p = self.params
        d = p.d
        approve_key = self._key(self.APPROVE, value)

        # M1/M2: weak quorum of approve within [tau - 5d, tau] -> ready flag.
        weak = self.log.count_distinct_in(approve_key, now - 5.0 * d, now)
        if weak >= p.weak_quorum:
            self._ready_flag(value).set(now)
            self._touch_last_gm(value, now)
            self.line_exec[("M2", value)] = now

        # M3/M4: strong quorum of approve within [tau - 3d, tau] -> ready msg.
        strong = self.log.count_distinct_in(approve_key, now - 3.0 * d, now)
        if strong >= p.strong_quorum and self._may_send(self.READY, value, now):
            self._do_send(self.READY, value, ReadyMsg(self.general, value))
            self._touch_last_gm(value, now)
            self.line_exec[("M4", value)] = now

    def _block_n(self, value: Value, now: float) -> None:
        p = self.params
        ready_key = self._key(self.READY, value)
        if not self._ready_flag(value).is_set(now, p.delta_rmv):
            return

        # N1/N2: weak quorum of ready messages -> amplify.
        count = self.log.count_distinct(ready_key)
        if count >= p.weak_quorum and self._may_send(self.READY, value, now):
            self._do_send(self.READY, value, ReadyMsg(self.general, value))
            self._touch_last_gm(value, now)
            self.line_exec[("N2", value)] = now

        # N3/N4: strong quorum of ready messages -> I-accept.
        if count >= p.strong_quorum:
            self._execute_n4(value, now)

    def _execute_n4(self, value: Value, now: float) -> None:
        entry = self.i_values.get(value)
        if entry is None or not self._i_value_live(entry, now):
            # From an arbitrary initial state, forged ready quorums can push a
            # node here with no live anchor (Lemma 2 proves this cannot happen
            # once stable).  Hardening: drop the wave instead of accepting a
            # garbage anchor.
            self.host.trace(
                "ia_n4_no_anchor", general=self.general, value=value
            )
            self.log.remove_keys(
                [self._key(k, value) for k in (self.SUPPORT, self.APPROVE, self.READY)]
            )
            self._ready_flag(value).clear()
            return
        tau_g = entry.recording
        # i_values[G, *] := BOTTOM; remove and ignore (G, m) messages for 3d.
        self.i_values.clear()
        self.log.remove_keys(
            [self._key(k, value) for k in (self.SUPPORT, self.APPROVE, self.READY)]
        )
        self.ignore_until[value] = now + 3.0 * self.params.d
        self._touch_last_gm(value, now)
        self.last_g = now
        self.line_exec[("N4", value)] = now
        self.host.trace(
            "i_accept", general=self.general, value=value, tau_g_local=tau_g
        )
        self.on_accept(value, tau_g)

    # ------------------------------------------------------------------
    # Cleanup (the background decay process)
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Run the paper's cleanup rules; call every ~d of local time."""
        now = self._now()
        p = self.params

        self.log.prune_older_than(now - p.delta_rmv)
        self.log.prune_future(now)

        # last(G): reset if in the future or older than Delta_0 - 6d.
        if self.last_g is not None:
            if self.last_g > now or self.last_g < now - (p.delta_0 - 6.0 * p.d):
                self.last_g = None

        # last(G, m): reset if in the future or older than 2 Delta_rmv + 9d.
        horizon = 2.0 * p.delta_rmv + 9.0 * p.d
        for value, history in self.last_gm.items():
            current = history.current
            if current is not None and (current > now or current < now - horizon):
                history.assign(now, None)
            history.prune(now - horizon - p.delta_rmv)

        # i_values entries: expire after Delta_rmv; drop future garbage.
        for value in list(self.i_values):
            entry = self.i_values[value]
            if not self._i_value_live(entry, now) or entry.recording > now:
                del self.i_values[value]

        # ready flags: same decay as other values.
        for flag in self.ready.values():
            if flag.set_at is not None and (
                flag.set_at > now or now - flag.set_at > p.delta_rmv
            ):
                flag.clear()

        # Implementation bookkeeping decays on the same horizons.
        self._sent_at = {
            key: t for key, t in self._sent_at.items() if now - horizon <= t <= now
        }
        self._own_support_sends = [
            (t, v) for t, v in self._own_support_sends if now - 2.0 * p.d <= t <= now
        ]
        self.ignore_until = {
            v: t for v, t in self.ignore_until.items() if t > now
        }
        self.line_exec = {
            key: t for key, t in self.line_exec.items() if now - horizon <= t <= now
        }

    # ------------------------------------------------------------------
    # Reset (3d after the agreement returns) and corruption
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Full reset of the instance (ss-Byz-Agree cleanup rule)."""
        now = self._now()
        self.log.clear()
        self.i_values.clear()
        for flag in self.ready.values():
            flag.clear()
        # last(G) / last(G, m) are *not* wiped: they enforce the General's
        # pacing (Delta_0 / Delta_v) across consecutive agreements.
        self._sent_at.clear()
        self._own_support_sends.clear()
        self.line_exec.clear()
        self.host.trace("ia_reset", general=self.general)

    def corrupt(self, rng: RandomStream, value_pool: list[Value]) -> None:
        """Transient fault: scramble every variable with plausible garbage."""
        now = self._now()
        p = self.params
        span = p.delta_stb
        for value in value_pool:
            if rng.chance(0.5):
                self.i_values[value] = _IValueEntry(
                    recording=now + rng.uniform(-span, span),
                    written_at=now + rng.uniform(-span, span),
                )
            if rng.chance(0.5):
                self._last_gm(value).assign(now, now + rng.uniform(-span, span))
            if rng.chance(0.5):
                self._ready_flag(value).set(now + rng.uniform(-span, 0))
            # Fabricated "received" messages from every node at random times.
            for kind in (self.SUPPORT, self.APPROVE, self.READY):
                for sender in range(p.n):
                    if rng.chance(0.3):
                        self.log.corrupt_insert(
                            self._key(kind, value),
                            sender,
                            now + rng.uniform(-span, span),
                        )
        if rng.chance(0.5):
            self.last_g = now + rng.uniform(-span, span)
        self.host.trace("ia_corrupted", general=self.general)



__all__ = ["ReferenceInitiatorAccept", "ReferenceMsgdBroadcast"]
