"""The ss-Byz-Agree protocol (paper Section 3, Figure 1).

Per-General state machine layered on the two primitives:

* **Q0/Q1** -- the General disseminates ``(Initiator, G, m)``; receivers
  invoke Initiator-Accept.
* **R** -- if the node I-accepts within ``4d`` of its anchor it adopts the
  General's value, relays it via msgd-broadcast at round 1, and decides.
* **S** -- otherwise the node decides once it has accepted a chain of
  ``r`` relayed broadcasts ``(p_i, (G, m''), i)``, ``i = 1..r`` from distinct
  non-General nodes, within the round-``r`` deadline -- then relays at round
  ``r + 1``.
* **T/U** -- aborts: too few detected broadcasters for the elapsed round
  (T), or the hard ``(2f + 1) Phi`` deadline (U).
* **Cleanup** -- stale values decay; 3d after returning, the node resets the
  primitives and the anchor, which is what lets agreement instances recur.

The General-side Sending Validity Criteria (IG1 ``Delta_0`` pacing, IG2
``Delta_v`` same-value pacing, IG3 ``Delta_reset`` back-off after a failed
initiation) are enforced by :meth:`ProtocolNode.propose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.initiator_accept import InitiatorAccept
from repro.core.messages import (
    MB_MESSAGE_TYPES,
    ApproveMsg,
    InitiatorMsg,
    ReadyMsg,
    SupportMsg,
    Value,
)
from repro.core.msgd_broadcast import MsgdBroadcast
from repro.core.params import BOTTOM, ProtocolParams
from repro.node.base import Node
from repro.runtime.api import Delivery, RandomStream


#: The intake routes on the message's exact class; msgd-broadcast traffic
#: (4 kinds x n relays) dominates, so it is tested first.
_MB_CLASSES = frozenset(MB_MESSAGE_TYPES)
_IA_CLASSES = frozenset((SupportMsg, ApproveMsg, ReadyMsg))


@dataclass(frozen=True)
class Decision:
    """The outcome of one agreement execution at one node.

    ``value is BOTTOM`` means the node *aborted*; otherwise it *decided*.
    ``tau_g_*`` is the anchor (the agreed initiation time estimate); it is
    present for aborts too when the node had an anchor.
    """

    node: int
    general: int
    value: Value
    tau_g_local: Optional[float]
    tau_g_real: Optional[float]
    returned_local: float
    returned_real: float

    @property
    def decided(self) -> bool:
        """True iff a non-BOTTOM value was returned."""
        return self.value is not BOTTOM


DecisionCallback = Callable[[Decision], None]


def distinct_chain_exists(per_level: dict[int, set[int]], r: int) -> bool:
    """Distinct origins p_1..p_r with an accepted (p_i, m, i) per level?

    A system-of-distinct-representatives check over levels 1..r, solved by
    backtracking (r <= f is small).  This is the eager reference predicate;
    :class:`SdrPrefixCache` memoizes it incrementally.
    """
    level_sets = []
    for i in range(1, r + 1):
        origins = per_level.get(i, set())
        if not origins:
            return False
        level_sets.append(origins)
    # Smallest sets first makes the backtracking near-linear in practice.
    order = sorted(range(r), key=lambda i: len(level_sets[i]))

    used: set[int] = set()

    def assign(idx: int) -> bool:
        if idx == r:
            return True
        for origin in level_sets[order[idx]]:
            if origin not in used:
                used.add(origin)
                if assign(idx + 1):
                    return True
                used.discard(origin)
        return False

    return assign(0)


class SdrPrefixCache:
    """Incremental cache of the feasible SDR prefix per candidate value.

    An SDR for levels ``1..r`` restricts to one for ``1..r-1``, so the set
    of feasible ``r`` is always a prefix ``1..max_sdr``; and adding origins
    to level sets can only *extend* that prefix.  Block S therefore needs a
    fresh backtracking search only for values whose origin sets grew since
    the last check -- and only upward from the cached prefix length.  Any
    shrinking mutation (cleanup decay, corruption) must call
    :meth:`invalidate`, which falls back to a from-scratch recompute.
    """

    __slots__ = ("_max", "_grown")

    def __init__(self) -> None:
        self._max: dict[Value, int] = {}
        self._grown: set[Value] = set()

    def grew(self, value: Value) -> None:
        """Record that a level set of ``value`` gained an origin."""
        self._grown.add(value)

    def invalidate(self) -> None:
        """Forget everything (level sets shrank or were rebuilt)."""
        self._max.clear()
        self._grown.clear()

    def prefix(
        self, value: Value, per_level: dict[int, set[int]], max_r: int
    ) -> int:
        """Longest ``r`` in ``0..max_r`` with an SDR over levels 1..r."""
        cached = self._max.get(value)
        if cached is not None and value not in self._grown:
            return cached
        m = cached or 0
        while m < max_r and distinct_chain_exists(per_level, m + 1):
            m += 1
        self._max[value] = m
        self._grown.discard(value)
        return m


class AgreementInstance:
    """One node's execution state for agreements initiated by one General."""

    def __init__(self, node: "ProtocolNode", general) -> None:
        self.node = node
        self.general = general
        # Concurrent-invocation support (paper footnote 9): an instance may
        # be keyed by (general_node_id, index); the authenticated-sender
        # checks always use the underlying node id.
        self.general_node_id = general if isinstance(general, int) else general[0]
        self.params = node.params
        self.ia = InitiatorAccept(node, general, self._on_i_accept)
        self.mb = MsgdBroadcast(node, general, self._on_mb_accept)

        self.tau_g: Optional[float] = None
        self.accepted_value: Optional[Value] = None  # m' from the I-accept
        self.stopped = False
        self.returned_at: Optional[float] = None
        # value -> level k -> set of origins whose (p, (G, m), k) we accepted
        self.accept_levels: dict[Value, dict[int, set[int]]] = {}
        self._deadline_timers: list = []
        self._reset_timer = None
        # Incremental Block-S state: cached SDR prefix per value, and the
        # round deadlines for the current anchor (recomputed if a transient
        # fault rewrites ``tau_g`` under us).
        self._sdr = SdrPrefixCache()
        self._round_deadlines: Optional[tuple[float, list[float]]] = None
        # Age past which an anchor is stale (see cleanup).
        self._anchor_horizon = self.params.delta_agr + 3.0 * self.params.d

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------
    def handle(self, msg: object, sender: int) -> None:
        """Route one delivered protocol message to the right primitive."""
        cls = type(msg)
        if cls in _MB_CLASSES:
            self.mb.on_message(msg, sender)
        elif cls in _IA_CLASSES:
            self.ia.on_message(msg, sender)
        elif cls is InitiatorMsg:
            # Block Q1: invoke Initiator-Accept (only the General's own
            # Initiator message counts -- authenticated sender check).
            if sender == self.general_node_id and not self.stopped:
                self.ia.invoke(msg.value)
        else:
            raise TypeError(f"unknown protocol message: {msg!r}")

    # ------------------------------------------------------------------
    # Primitive callbacks
    # ------------------------------------------------------------------
    def _on_i_accept(self, value: Value, tau_g: float) -> None:
        if self.stopped:
            return
        if self.tau_g is not None:
            # At most one setting of tau_G per execution.
            return
        now = self.node.local_now()
        self.tau_g = tau_g
        self.accepted_value = value
        self.mb.set_anchor(tau_g)
        if self.stopped:
            # The anchor-set backlog replay can complete an S-chain and
            # return synchronously; at most one of R..U runs per anchor.
            return

        # Block R: fresh I-accept -> decide now.  The paper's Figure 1 says
        # "tau_q - tau_G_q <= 4d", but its own IA-1D bound allows the gap to
        # reach 5d for a correct General (anchor >= t0 - d, accept <= t0 +
        # 4d), and executions at the legal-delay tail do reach ~4.2d -- with
        # a 4d guard every node rejects, nobody relays, and Validity fails.
        # We use the 5d bound IA-1D actually proves; every downstream
        # argument only needs this window to fit inside Phi = 8d (Lemma 8,
        # r = 0 case), which it does.
        if now - tau_g <= 5.0 * self.params.d:
            # No round-deadline timers (nor after the replay's return above):
            # a stopped instance ignores them until the reset 3d later
            # cancels them, so they could never act.
            self._decide(value, relay_round=1)
        else:
            # Too stale for R; S may still decide from relayed broadcasts.
            self._schedule_deadlines()
            self._check_s()

    def _on_mb_accept(self, origin: int, value: Value, k: int, now: float) -> None:
        if self.stopped:
            return
        if origin == self.general_node_id:
            # Block S requires p_i != G.
            return
        per_level = self.accept_levels.setdefault(value, {})
        origins = per_level.setdefault(k, set())
        if origin not in origins:
            origins.add(origin)
            self._sdr.grew(value)
        self._check_s()

    # ------------------------------------------------------------------
    # Block S: decide from a chain of relayed broadcasts
    # ------------------------------------------------------------------
    def _check_s(self) -> None:
        if self.stopped or self.tau_g is None:
            return
        now = self.node.local_now()
        deadlines = self._deadlines_for(self.tau_g)
        f = self.params.f
        sdr = self._sdr
        for r in range(1, f + 1):
            if now > deadlines[r - 1]:
                continue
            for value, per_level in self.accept_levels.items():
                if sdr.prefix(value, per_level, f) >= r:
                    self._decide(value, relay_round=r + 1)
                    return

    def _deadlines_for(self, tau_g: float) -> list[float]:
        """Round deadlines ``tau_G + (2r + 1) Phi``, cached per anchor."""
        cache = self._round_deadlines
        if cache is None or cache[0] != tau_g:
            p = self.params
            deadlines = [tau_g + p.round_deadline(r) for r in range(1, p.f + 1)]
            self._round_deadlines = (tau_g, deadlines)
            return deadlines
        return cache[1]

    # ------------------------------------------------------------------
    # Blocks T and U: aborts at round deadlines
    # ------------------------------------------------------------------
    def _schedule_deadlines(self) -> None:
        assert self.tau_g is not None
        now = self.node.local_now()
        epsilon = self.params.d * 1e-9
        for r in range(1, self.params.f + 2):
            target = self.tau_g + self.params.round_deadline(r) + epsilon
            delay = max(0.0, target - now)
            handle = self.node.after_local(
                delay, lambda r=r: self._at_deadline(r), tag=f"deadline:{self.general}:r{r}"
            )
            self._deadline_timers.append(handle)

    def _at_deadline(self, r: int) -> None:
        if self.stopped or self.tau_g is None:
            return
        now = self.node.local_now()
        # Block U: hard deadline at (2f + 1) Phi.
        if now > self.tau_g + self.params.round_deadline(self.params.f):
            self._abort()
            return
        # Block T: past round r's deadline with too few broadcasters.
        if now > self.tau_g + self.params.round_deadline(r):
            if len(self.mb.broadcasters) < r - 1:
                self._abort()

    # ------------------------------------------------------------------
    # Returning
    # ------------------------------------------------------------------
    def _decide(self, value: Value, relay_round: int) -> None:
        # Lines R2-R4 / S2-S4: adopt, relay, stop, return.
        self.mb.invoke(value, relay_round)
        self._return_value(value)

    def _abort(self) -> None:
        self._return_value(BOTTOM)

    def _return_value(self, value: Value) -> None:
        now = self.node.local_now()
        self.stopped = True
        self.returned_at = now
        tau_g_real = (
            self.node.real_at_local(self.tau_g)
            if self.tau_g is not None
            else None
        )
        decision = Decision(
            node=self.node.node_id,
            general=self.general,
            value=value,
            tau_g_local=self.tau_g,
            tau_g_real=tau_g_real,
            returned_local=now,
            returned_real=self.node.real_now(),
        )
        kind = "decide" if decision.decided else "abort"
        self.node.trace(
            kind,
            general=self.general,
            value=value,
            tau_g_local=self.tau_g,
            tau_g_real=tau_g_real,
        )
        self.node.record_decision(decision)
        # 3d after returning: reset the primitives, tau_G, and the anchor.
        self._reset_timer = self.node.after_local(
            3.0 * self.params.d, self._reset_after_return, tag=f"reset:{self.general}"
        )

    def _reset_after_return(self) -> None:
        self._reset_timer = None
        self.reset()

    def reset(self) -> None:
        """Reset this execution (keeps the General's pacing history)."""
        self.ia.reset()
        self.mb.reset()
        self.tau_g = None
        self.accepted_value = None
        self.stopped = False
        self.returned_at = None
        self.accept_levels.clear()
        self._sdr.invalidate()
        self._round_deadlines = None
        for handle in self._deadline_timers:
            handle.cancel()
        self._deadline_timers.clear()

    def retire(self) -> None:
        """Drop every live timer and all execution state for good.

        ``reset()`` deliberately leaves the 3d post-return timer pending (the
        paper's recurrence story needs it); a *retired* instance is being
        removed from the node entirely, so that timer must go too or it keeps
        the instance object alive in the timer wheel.
        """
        self.reset()
        if self._reset_timer is not None:
            self._reset_timer.cancel()
            self._reset_timer = None

    # ------------------------------------------------------------------
    # Cleanup (periodic)
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Decay stale state; self-heals a corrupted/stuck execution.

        Past the primitives' rules, an idle instance reads no clock.
        """
        self.ia.cleanup()
        self.mb.cleanup()
        tau_g, returned_at = self.tau_g, self.returned_at
        # The anchor is set with tau_G and cleared with it, so an anchor
        # without one can only be corrupted state.
        if tau_g is None and self.mb.anchor is not None:
            self.mb.clear_anchor()
        if tau_g is not None or returned_at is not None:
            now = self.node.local_now()
            # A (possibly corrupted) anchor older than the whole agreement
            # window is stale: erase it (the paper's "erase any value ...
            # older than (2f + 1) Phi + 3d").  A return whose 3d reset timer
            # was lost to a fault also self-heals.
            if (
                tau_g is not None
                and (tau_g > now or now - tau_g > self._anchor_horizon)
            ) or (
                returned_at is not None
                and (returned_at > now or now - returned_at > 4.0 * self.params.d)
            ):
                self.reset()
                return
        # Stale accepted-broadcast evidence decays with the mb log; rebuild
        # the level sets from the surviving accepted records.  The sets may
        # shrink, so the cached SDR prefixes are no longer trustworthy.
        if self.accept_levels:
            survivors: dict[Value, dict[int, set[int]]] = {}
            for (origin, value, k), _t in self.mb.accepted.items():
                if origin == self.general_node_id:
                    continue
                survivors.setdefault(value, {}).setdefault(k, set()).add(origin)
            self.accept_levels = survivors
            self._sdr.invalidate()

    # ------------------------------------------------------------------
    # Transient corruption
    # ------------------------------------------------------------------
    def corrupt(self, rng: RandomStream, value_pool: list[Value]) -> None:
        """Scramble the whole execution state (transient fault)."""
        now = self.node.local_now()
        span = self.params.delta_stb
        self.ia.corrupt(rng, value_pool)
        self.mb.corrupt(rng, value_pool)
        if rng.chance(0.5):
            self.tau_g = now + rng.uniform(-span, span)
            self.accepted_value = rng.choice(value_pool)
        if rng.chance(0.3):
            self.stopped = True
            self.returned_at = now + rng.uniform(-span, span)
        for value in value_pool:
            if rng.chance(0.4):
                per_level = self.accept_levels.setdefault(value, {})
                for k in range(1, self.params.f + 2):
                    if rng.chance(0.4):
                        per_level.setdefault(k, set()).update(
                            rng.sample(range(self.params.n), rng.randint(1, 2))
                        )
        # The level sets were rewritten wholesale: recompute from scratch.
        self._sdr.invalidate()


class ProtocolNode(Node):
    """A correct node running ss-Byz-Agree for every General."""

    #: Service-layer hook: handed every delivered payload that is not a
    #: protocol message (no ``general``); such payloads are dropped if unset.
    on_service_payload: Optional[Callable[[Delivery], None]] = None

    def __init__(
        self,
        node_id: int,
        ctx,  # a ProtocolHost, or a sim NodeContext (wrapped by Node)
        params: ProtocolParams,
        on_decision: Optional[DecisionCallback] = None,
        cleanup_interval_d: float = 1.0,
        resend_gap_d: float = 1.0,
    ) -> None:
        super().__init__(node_id, ctx)
        self.params = params
        self.cleanup_interval_d = cleanup_interval_d
        self.resend_gap_d = resend_gap_d
        self.instances: dict[int, AgreementInstance] = {}
        self.decisions: list[Decision] = []
        self.on_decision = on_decision
        # Service-layer hook: when set, a message for a general with *no*
        # existing instance only creates one if the gate returns True.  Lets
        # a long-lived process refuse to resurrect retired instance keys
        # from straggler relays without touching the protocol hot path.
        self.instance_gate: Optional[Callable[[object], bool]] = None
        # Watch fires folded in from retired instances, so the node-level
        # counter stays monotone across instance retirement (observability).
        self._retired_watch_fires = 0

        # General-side pacing state (Sending Validity Criteria).
        self._last_initiation: Optional[float] = None
        self._last_initiation_by_value: dict[Value, float] = {}
        self._failed_initiation_at: Optional[float] = None

        # Background cleanup, every d of local time (ablation-adjustable).
        self.every_local(
            self.cleanup_interval_d * self.params.d,
            self._cleanup_tick,
            tag=f"cleanup:{node_id}",
        )

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------
    def instance(self, general: int) -> AgreementInstance:
        """Get (or lazily create) the execution state for one General."""
        if general not in self.instances:
            self.instances[general] = AgreementInstance(self, general)
        return self.instances[general]

    def retire_instance(self, general) -> bool:
        """Drop one instance's state and timers entirely (service layer).

        Unlike the periodic cleanup decay, this removes the instance from
        ``instances`` so the per-``d`` cleanup tick stops visiting it --
        essential when a long-lived process runs through thousands of
        slot-indexed instances.  Returns True iff the instance existed.
        """
        inst = self.instances.pop(general, None)
        if inst is None:
            return False
        self._retired_watch_fires += (
            inst.ia.log.watch_fires + inst.mb.log.watch_fires
        )
        inst.retire()
        return True

    def watch_fires(self) -> int:
        """Watch callbacks fired node-wide, retired instances included."""
        return self._retired_watch_fires + sum(
            inst.ia.log.watch_fires + inst.mb.log.watch_fires
            for inst in self.instances.values()
        )

    def live_watches(self) -> int:
        """Currently registered message-log watches across live instances."""
        return sum(
            inst.ia.log.live_watch_count() + inst.mb.log.live_watch_count()
            for inst in self.instances.values()
        )

    # ------------------------------------------------------------------
    # Block Q0: initiating an agreement as the General
    # ------------------------------------------------------------------
    def propose(self, value: Value) -> bool:
        """Initiate agreement on ``value`` with this node as the General.

        Enforces the Sending Validity Criteria; returns False (and sends
        nothing) if pacing forbids initiating now.
        """
        now = self.local_now()
        if not self.may_propose(value):
            self.trace("propose_refused", value=value)
            return False
        # The General removes prior messages associated with its own
        # invocations before initiating (Section 4).
        own = self.instance(self.node_id)
        own.ia.log.clear()

        self._last_initiation = now
        self._last_initiation_by_value[value] = now
        self.trace("propose", value=value)
        self.broadcast(InitiatorMsg(self.node_id, value))
        self._watch_own_initiation(value, now)
        return True

    def may_propose(self, value: Value) -> bool:
        """Check IG1 (Delta_0), IG2 (Delta_v), IG3 (Delta_reset back-off)."""
        now = self.local_now()
        p = self.params
        if self._last_initiation is not None and (
            now - self._last_initiation < p.delta_0
        ):
            return False
        last_same = self._last_initiation_by_value.get(value)
        if last_same is not None and now - last_same < p.delta_v:
            return False
        if self._failed_initiation_at is not None and (
            now - self._failed_initiation_at < p.delta_reset
        ):
            return False
        return True

    def _watch_own_initiation(self, value: Value, started: float) -> None:
        """IG3: watch own L4/M4/N4 progress; mark failure if any is late."""
        ia = self.instance(self.node_id).ia
        checks = (("L4", 2.0), ("M4", 3.0), ("N4", 4.0))
        epsilon = self.params.d * 1e-9

        def make_check(line: str, bound_d: float):
            def check() -> None:
                executed = ia.line_exec.get((line, value))
                if executed is None or executed < started:
                    if self._failed_initiation_at is None or (
                        self._failed_initiation_at < started
                    ):
                        self._failed_initiation_at = self.local_now()
                        self.trace(
                            "initiation_failed", value=value, missing_line=line
                        )

            return check

        for line, bound_d in checks:
            self.after_local(
                bound_d * self.params.d + epsilon,
                make_check(line, bound_d),
                tag=f"ig3:{line}",
            )

    # ------------------------------------------------------------------
    # Message intake
    # ------------------------------------------------------------------
    def on_message(self, envelope: Delivery) -> None:
        msg = envelope.payload
        general = getattr(msg, "general", None)
        if general is None:
            # Not an ss-Byz-Agree message: a layer above may claim it.
            if self.on_service_payload is not None:
                self.on_service_payload(envelope)
            return
        inst = self.instances.get(general)
        if inst is None:
            gate = self.instance_gate
            if gate is not None and not gate(general):
                return
            inst = self.instance(general)
        inst.handle(msg, envelope.sender)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def record_decision(self, decision: Decision) -> None:
        """Store a completed execution's outcome and notify the observer."""
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(decision)

    def decisions_for(self, general: int) -> list[Decision]:
        """All recorded outcomes for one General, in return order."""
        return [dec for dec in self.decisions if dec.general == general]

    # ------------------------------------------------------------------
    # Background cleanup and corruption
    # ------------------------------------------------------------------
    def _cleanup_tick(self) -> None:
        for inst in self.instances.values():
            inst.cleanup()
        # General-side pacing stamps: future stamps are "clearly wrong" and
        # are removed (transient-fault hygiene); stale ones have expired
        # anyway and are dropped to bound memory.
        if not self._last_initiation_by_value and (
            self._last_initiation is None and self._failed_initiation_at is None
        ):
            return
        now = self.local_now()
        p = self.params
        if self._last_initiation is not None and (
            self._last_initiation > now or now - self._last_initiation > p.delta_v
        ):
            self._last_initiation = None
        if self._last_initiation_by_value:
            for value in list(self._last_initiation_by_value):
                stamp = self._last_initiation_by_value[value]
                if stamp > now or now - stamp > p.delta_v:
                    del self._last_initiation_by_value[value]
        if self._failed_initiation_at is not None and (
            self._failed_initiation_at > now
            or now - self._failed_initiation_at > p.delta_reset
        ):
            self._failed_initiation_at = None

    def corrupt(self, rng: RandomStream, value_pool: list[Value]) -> None:
        """Transient fault: scramble all protocol state on this node."""
        self.trace("corrupt")
        for inst in self.instances.values():
            inst.corrupt(rng, value_pool)
        if rng.chance(0.5):
            self._last_initiation = self.local_now() + rng.uniform(
                -self.params.delta_stb, self.params.delta_stb
            )
        if rng.chance(0.3):
            self._failed_initiation_at = self.local_now() + rng.uniform(
                -self.params.delta_stb, 0
            )


__all__ = [
    "AgreementInstance",
    "Decision",
    "DecisionCallback",
    "ProtocolNode",
    "SdrPrefixCache",
    "distinct_chain_exists",
]
