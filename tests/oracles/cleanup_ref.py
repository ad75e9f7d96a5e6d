"""Reference cleanup rules: every decay pass rebuilds what it decays.

These are the cleanup rules of :class:`~repro.node.msglog.MessageLog`,
:class:`~repro.core.initiator_accept.InitiatorAccept`,
:class:`~repro.core.msgd_broadcast.MsgdBroadcast` and
:class:`~repro.core.agreement.AgreementInstance` as they stood before the
production rules learned to skip what is not due: every tick walks every
key, rebuilds every stamped dict, recomputes the known triplets and the
accept level sets, and marks every evaluation state stale.  The changes
since: the ``ignore_until`` rule also drops a deadline beyond ``now + 3d``
(the only value the protocol ever writes), ``broadcasters`` drops a stamp
in the future as ``accepted`` always did, an instance without ``tau_G``
clears a msgd-broadcast anchor (the two are set together), and a
``last(G, m)`` history drops its entries stamped in the future.

Each class subclasses its production counterpart and overrides only the
cleanup rules, so the paired instances of ``tests/test_cleanup_equiv.py``
share every intake and corruption path and differ in cleanup alone.

Do not "optimize" this module -- its bluntness is its value.
"""

from __future__ import annotations

from repro.core.agreement import AgreementInstance
from repro.core.initiator_accept import InitiatorAccept
from repro.core.msgd_broadcast import MsgdBroadcast
from repro.node.msglog import MessageLog


class ReferenceCleanupLog(MessageLog):
    """Prunes by calling into every key, due or not (the per-key
    ``_KeyLog`` prunes are shared with production)."""

    def prune_older_than(self, cutoff_local: float) -> int:
        if not self._keys:
            return 0
        dropped = 0
        empty_keys = []
        for key, klog in self._keys.items():
            dropped += klog.prune_older_than(cutoff_local)
            if not klog.nsenders:
                empty_keys.append(key)
        for key in empty_keys:
            del self._keys[key]
        if dropped:
            self._invalidate_watches()
        return dropped

    def prune_future(self, now_local: float) -> int:
        if not self._keys:
            return 0
        dropped = 0
        for klog in self._keys.values():
            dropped += klog.prune_future(now_local)
        if dropped:
            self._invalidate_watches()
        return dropped

    def decay(self, cutoff_local: float, now_local: float) -> int:
        return self.prune_older_than(cutoff_local) + self.prune_future(now_local)


class ReferenceCleanupIA(InitiatorAccept):
    """Initiator-Accept whose cleanup rebuilds every stamped container."""

    def __init__(self, host, general, on_accept) -> None:
        super().__init__(host, general, on_accept)
        self.log = ReferenceCleanupLog()

    def cleanup(self) -> None:
        now = self._now()
        p = self.params

        self.log.decay(now - p.delta_rmv, now)

        # last(G): reset if in the future or older than Delta_0 - 6d.
        if self.last_g is not None:
            if self.last_g > now or self.last_g < now - self._last_g_horizon:
                self.last_g = None

        # last(G, m): reset if in the future or older than 2 Delta_rmv + 9d.
        horizon = self._last_gm_horizon
        for value, history in self.last_gm.items():
            current = history.current
            if current is not None and (current > now or current < now - horizon):
                history.assign(now, None)
            history._history = [e for e in history._history if e[0] <= now]
            history.prune(now - horizon - p.delta_rmv)

        # i_values entries: expire after Delta_rmv; drop future garbage.
        if self.i_values:
            for value in list(self.i_values):
                entry = self.i_values[value]
                if not self._i_value_live(entry, now) or entry.recording > now:
                    del self.i_values[value]

        # ready flags: same decay as other values.
        for flag in self.ready.values():
            if flag.set_at is not None and (
                flag.set_at > now or now - flag.set_at > p.delta_rmv
            ):
                flag.set_at = None

        # Implementation bookkeeping decays on the same horizons.
        if self._sent_at:
            self._sent_at = {
                key: t for key, t in self._sent_at.items() if now - horizon <= t <= now
            }
        if self._own_support_sends:
            self._own_support_sends = [
                (t, v)
                for t, v in self._own_support_sends
                if now - 2.0 * p.d <= t <= now
            ]
        if self.ignore_until:
            self.ignore_until = {
                v: t
                for v, t in self.ignore_until.items()
                if now < t <= now + 3.0 * p.d
            }
        if self.line_exec:
            self.line_exec = {
                key: t for key, t in self.line_exec.items() if now - horizon <= t <= now
            }


class ReferenceCleanupMB(MsgdBroadcast):
    """msgd-broadcast whose cleanup recomputes every derived set."""

    def __init__(self, host, general, on_accept, on_broadcaster=None) -> None:
        super().__init__(host, general, on_accept, on_broadcaster)
        self.log = ReferenceCleanupLog()

    def cleanup(self) -> None:
        now = self.host.now()
        horizon = self._horizon
        self.log.decay(now - horizon, now)
        # Stale derived state ages out on the same horizon.
        if self.broadcasters:
            self.broadcasters = {
                node: t
                for node, t in self.broadcasters.items()
                if now - t <= horizon and t <= now
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


class ReferenceCleanupInstance(AgreementInstance):
    """Agreement instance on the reference primitives, rebuilding its level
    sets on every tick."""

    def __init__(self, node, general) -> None:
        super().__init__(node, general)
        self.ia = ReferenceCleanupIA(node, general, self._on_i_accept)
        self.mb = ReferenceCleanupMB(node, general, self._on_mb_accept)

    def cleanup(self) -> None:
        now = self.node.local_now()
        p = self.params
        self.ia.cleanup()
        self.mb.cleanup()
        if self.tau_g is None and self.mb.anchor is not None:
            self.mb.clear_anchor()
        horizon = self._anchor_horizon
        # A (possibly corrupted) anchor older than the whole agreement window
        # is stale: erase it (the paper's "erase any value ... older than
        # (2f + 1) Phi + 3d").
        if self.tau_g is not None and (self.tau_g > now or now - self.tau_g > horizon):
            self.reset()
            return
        # A return whose 3d reset timer was lost to a fault also self-heals.
        if self.returned_at is not None and (
            self.returned_at > now or now - self.returned_at > 4.0 * p.d
        ):
            self.reset()
            return
        # Stale accepted-broadcast evidence decays with the mb log; rebuild
        # the level sets from the surviving accepted records.  The sets may
        # shrink, so the cached SDR prefixes are no longer trustworthy.
        if self.accept_levels:
            survivors: dict = {}
            for (origin, value, k), _t in self.mb.accepted.items():
                if origin == self.general_node_id:
                    continue
                survivors.setdefault(value, {}).setdefault(k, set()).add(origin)
            self.accept_levels = survivors
            self._sdr.invalidate()


__all__ = [
    "ReferenceCleanupIA",
    "ReferenceCleanupInstance",
    "ReferenceCleanupLog",
    "ReferenceCleanupMB",
]
