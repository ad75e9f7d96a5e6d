"""The Initiator-Accept primitive (paper Section 4, Figure 2).

Gives all correct nodes a consistent *relative local-time anchor* ``tau_G``
for a (possibly Byzantine) General's initiation, plus a single candidate
value, without assuming any prior synchronization -- the key enabler for
self-stabilizing agreement.

Block structure (each block is a guard re-evaluated on message arrival):

* **Block K** (invocation): on ``(Initiator, G, m)``, if the freshness tests
  of Line K1 pass, record a provisional anchor ``tau - d`` and send
  ``support``.
* **Block L**: a weak quorum of recent ``support`` refreshes the anchor
  estimate (L1/L2); a strong quorum within ``2d`` triggers ``approve`` (L3/L4).
* **Block M**: a weak quorum of recent ``approve`` arms the ``ready`` flag
  (M1/M2); a strong quorum triggers the ``ready`` message (M3/M4).
* **Block N** (untimed): ready amplification (N1/N2) and final acceptance
  (N3/N4) -- ``I-accept (G, m, tau_G)``.
* **Cleanup**: decay of messages (``Delta_rmv``), of ``last(G)``
  (``Delta_0 - 6d``) and of ``last(G, m)`` (``2 Delta_rmv + 9d``).

The bookkeeping variables (``i_values``, ``last(G)``, ``last(G, m)``, the
``ready`` flag) are all *timestamped and decaying*, which is precisely what
makes the primitive self-stabilizing: any garbage a transient fault plants in
them drains out within a bounded number of cleanup cycles.

Fast path
---------
Unlike msgd-broadcast's anchored windows, Blocks L and M use *sliding*
windows ``[now - c*d, now]``, and Line L2 has refresh-on-every-arrival side
effects (``i_values`` expiry, ``last(G, m)``), so arrivals can never skip
evaluation outright.  Instead the quorum predicates ride the message log's
latest-arrival fast path: ``count_distinct_in`` with the window ending at
``now`` is a single bisect on the cached ascending latest-arrival array
(see :mod:`repro.node.msglog`), and the per-value message keys and quorum
sizes are computed once instead of per arrival.  The original eager
evaluator is kept verbatim as the test oracle ``tests/oracles/eval_ref.py``
and ``tests/test_eval_equiv.py`` proves behavioural equivalence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from repro.core.messages import (
    ApproveMsg,
    ReadyMsg,
    SupportMsg,
    Value,
)
from repro.node.msglog import MessageLog
from repro.runtime.api import ALWAYS_ENABLED, ProtocolHost, RandomStream


# Callback signature: (value, tau_g_local) -> None
AcceptCallback = Callable[[Value, float], None]

_entry_time = itemgetter(0)


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
        history = self._history
        if history and history[-1][0] > now:  # the clock jumped back
            self.drop_future(now)
        history.append((now, value))

    def value_at(self, when: float) -> Optional[float]:
        """Value at an earlier time; entries before any record are BOTTOM."""
        result: Optional[float] = None
        for time, value in self._history:
            if time <= when:
                result = value
            else:
                break
        return result

    def drop_future(self, now: float) -> None:
        """Drop entries stamped after ``now``, which a backward clock jump
        leaves behind.  ``assign`` calls this before it appends and cleanup
        before it prunes, so the stamps stay sorted and any future ones are
        a suffix."""
        history = self._history
        if history and history[-1][0] > now:
            del history[bisect_right(history, now, key=_entry_time) :]

    def prune(self, horizon: float) -> None:
        """Drop history before ``horizon`` keeping the last earlier entry."""
        # The stamps are sorted (drop_future), so the last entry before the
        # horizon is found by bisect; only slice when something drops.
        idx = bisect_left(self._history, horizon, key=_entry_time)
        if idx > 1:
            self._history = self._history[idx - 1 :]

    @property
    def bottom_only(self) -> bool:
        """True iff every reading, now or of the past, is BOTTOM."""
        history = self._history
        if self.current is not None or (history and history[0][1] is not None):
            return False  # the common case, decided without a scan
        return all(value is None for _time, value in history)


class InitiatorAccept:
    """One Initiator-Accept instance: this node's view of General ``G``."""

    SUPPORT = "support"
    APPROVE = "approve"
    READY = "ready"

    def __init__(
        self,
        host: ProtocolHost,
        general: int,
        on_accept: AcceptCallback,
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
        # Decay horizons of last(G) and last(G, m) (see cleanup).
        p = self.params
        self._last_g_horizon = p.delta_0 - 6.0 * p.d
        self._last_gm_horizon = 2.0 * p.delta_rmv + 9.0 * p.d
        # Per-value message keys, built once (the blocks are hot).
        self._value_keys: dict[Value, tuple] = {}
        self._tracer = getattr(host, "tracer", ALWAYS_ENABLED)

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.host.now()

    def _key(self, kind: str, value: Value):
        return (kind, self.general, value)

    def _keys_for(self, value: Value) -> tuple:
        """(support, approve, ready) keys for one value, built once."""
        keys = self._value_keys.get(value)
        if keys is None:
            general = self.general
            keys = self._value_keys[value] = (
                (self.SUPPORT, general, value),
                (self.APPROVE, general, value),
                (self.READY, general, value),
            )
        return keys

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
        if self._tracer.enabled:
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
        kind = _KINDS.get(type(msg))
        if kind is None:
            raise TypeError(f"not an Initiator-Accept message: {msg!r}")
        value = msg.value  # type: ignore[attr-defined]
        if self._ignoring(value, now):
            return
        self.log.add((kind, self.general, value), sender, now)
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
        support_key = self._keys_for(value)[0]

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
        approve_key = self._keys_for(value)[1]

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
        ready_key = self._keys_for(value)[2]
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
            self.ready.pop(value, None)
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
        """Run the paper's cleanup rules; call every ~d of local time.

        A rule with nothing due reads, in this tick and from the state
        itself (never from a write-path flag: a transient fault writes state
        behind that path's back), and rebuilds nothing:

        * the log: each key's oldest and newest stamp;
        * ``last(G, m)``: each history's current value and newest stamp,
          and a bisect when it holds two entries or more; one left
          answering only BOTTOM goes;
        * ``i_values``, ``ready``: each entry; a flag reading unset goes;
        * ``_sent_at``, ``line_exec``, ``ignore_until``: the min and max stamp.
        """
        now = self.host.now()
        p = self.params

        self.log.decay(now - p.delta_rmv, now)

        # last(G): reset if in the future or older than Delta_0 - 6d.
        if self.last_g is not None:
            if self.last_g > now or self.last_g < now - self._last_g_horizon:
                self.last_g = None

        # last(G, m): reset if in the future or older than 2 Delta_rmv + 9d.
        horizon = self._last_gm_horizon
        if self.last_gm:
            floor = now - horizon - p.delta_rmv
            idle = []
            for value, history in self.last_gm.items():
                current = history.current
                if current is not None and (current > now or current < now - horizon):
                    history.assign(now, None)
                    current = None
                history.drop_future(now)
                if len(history._history) > 1:
                    history.prune(floor)
                if current is None and history.bottom_only:
                    idle.append(value)
            for value in idle:
                del self.last_gm[value]

        # i_values entries: expire after Delta_rmv; drop future garbage.
        if self.i_values:
            for value in list(self.i_values):
                entry = self.i_values[value]
                if not self._i_value_live(entry, now) or entry.recording > now:
                    del self.i_values[value]

        # ready flags: same decay as other values; one that reads unset goes.
        if self.ready:
            for value in [
                v for v, flag in self.ready.items() if not flag.is_set(now, p.delta_rmv)
            ]:
                del self.ready[value]

        # Implementation bookkeeping decays on the same horizons.
        low = now - horizon
        if self._sent_at and (
            min(self._sent_at.values()) < low or max(self._sent_at.values()) > now
        ):
            self._sent_at = {
                key: t for key, t in self._sent_at.items() if low <= t <= now
            }
        if self._own_support_sends:
            self._own_support_sends = [
                (t, v)
                for t, v in self._own_support_sends
                if now - 2.0 * p.d <= t <= now
            ]
        # An ignore deadline is only ever written as now + 3d: a later one
        # is "clearly wrong".
        if self.ignore_until:
            ceiling = now + 3.0 * p.d
            deadlines = self.ignore_until.values()
            if min(deadlines) <= now or max(deadlines) > ceiling:
                self.ignore_until = {
                    v: t for v, t in self.ignore_until.items() if now < t <= ceiling
                }
        if self.line_exec and (
            min(self.line_exec.values()) < low or max(self.line_exec.values()) > now
        ):
            self.line_exec = {
                key: t for key, t in self.line_exec.items() if low <= t <= now
            }

    # ------------------------------------------------------------------
    # Reset (3d after the agreement returns) and corruption
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Full reset of the instance (ss-Byz-Agree cleanup rule)."""
        now = self._now()
        self.log.clear()
        self.i_values.clear()
        self.ready.clear()
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


#: The log-key kind of each message class: the intake's class-keyed dispatch.
_KINDS: dict[type, str] = {
    SupportMsg: InitiatorAccept.SUPPORT,
    ApproveMsg: InitiatorAccept.APPROVE,
    ReadyMsg: InitiatorAccept.READY,
}


__all__ = ["InitiatorAccept"]
